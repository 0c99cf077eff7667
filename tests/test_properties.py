"""Property-based tests (hypothesis) on core data structures and the two
central invariants of the repo: scalar replacement never changes results,
and the vectorized execution engine is bit-for-bit the scalar interpreter.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analysis.subscripts import AffineForm, affine_of
from repro.codegen.vir import Instr, Op, VRegAllocator
from repro.gpu.interpreter import run_kernel
from repro.gpu.occupancy import compute_occupancy
from repro.gpu.registers import compute_live_intervals, max_pressure, ptxas_info
from repro.ir import BinOp, IntConst, UnOp, VarRef, build_module
from repro.ir.symbols import Symbol, SymbolKind
from repro.ir.types import I32
from repro.lang import parse_program

# ---------------------------------------------------------------------------
# AffineForm algebra
# ---------------------------------------------------------------------------

_SYMS = [Symbol(name=f"s{i}", stype=I32, kind=SymbolKind.LOOPVAR) for i in range(4)]


@st.composite
def affine_forms(draw, max_terms=4):
    form = AffineForm.constant(draw(st.integers(-50, 50)))
    for _ in range(draw(st.integers(0, max_terms))):
        sym = draw(st.sampled_from(_SYMS))
        coef = draw(st.integers(-10, 10))
        form = form + AffineForm.variable(sym, coef)
    return form


@st.composite
def int_exprs(draw, depth=0):
    """Random integer expressions over the shared symbols."""
    if depth >= 3 or draw(st.booleans()):
        if draw(st.booleans()):
            return IntConst(draw(st.integers(-20, 20)))
        return VarRef(draw(st.sampled_from(_SYMS)))
    op = draw(st.sampled_from(["+", "-", "*", "neg"]))
    if op == "neg":
        return UnOp("-", draw(int_exprs(depth + 1)))
    left = draw(int_exprs(depth + 1))
    right = draw(int_exprs(depth + 1))
    if op == "*" and not isinstance(left, IntConst) and not isinstance(right, IntConst):
        op = "+"  # keep degree manageable (still polynomial either way)
    return BinOp(op, left, right)


def eval_expr(e, env):
    if isinstance(e, IntConst):
        return e.value
    if isinstance(e, VarRef):
        return env[e.sym.name]
    if isinstance(e, UnOp):
        return -eval_expr(e.operand, env)
    if e.op == "+":
        return eval_expr(e.left, env) + eval_expr(e.right, env)
    if e.op == "-":
        return eval_expr(e.left, env) - eval_expr(e.right, env)
    return eval_expr(e.left, env) * eval_expr(e.right, env)


def eval_form(form, env):
    total = 0
    for mono, coef in form.terms:
        value = coef
        for s in mono:
            value *= env[s.name]
        total += value
    return total


class TestAffineFormProperties:
    @given(affine_forms(), affine_forms())
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(affine_forms(), affine_forms(), affine_forms())
    def test_addition_associates(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(affine_forms())
    def test_subtraction_self_is_zero(self, a):
        assert (a - a).is_zero

    @given(affine_forms(), st.integers(-10, 10))
    def test_scale_distributes(self, a, k):
        assert a.scale(k) + a.scale(-k) == AffineForm()

    @given(affine_forms(), st.integers(-6, 6).filter(lambda k: k != 0))
    def test_int_multiple_roundtrip(self, a, k):
        scaled = a.scale(k)
        assert scaled.as_int_multiple_of(a) == (0 if a.is_zero else k)

    @given(int_exprs(), st.dictionaries(st.sampled_from([s.name for s in _SYMS]),
                                        st.integers(-5, 5),
                                        min_size=4, max_size=4))
    def test_affine_of_agrees_with_evaluation(self, expr, env):
        """Normalisation is semantics-preserving: evaluating the polynomial
        form equals evaluating the expression."""
        env = {s.name: env.get(s.name, 1) for s in _SYMS}
        form = affine_of(expr)
        if form is None:
            return  # non-polynomial constructs are out of scope
        assert eval_form(form, env) == eval_expr(expr, env)

    @given(int_exprs())
    def test_linear_coefficient_drop_identity(self, expr):
        form = affine_of(expr)
        if form is None:
            return
        s = _SYMS[0]
        lin = form.linear_coefficient(s)
        if lin is None:
            return
        # form == drop(s) + s * lin, checked by evaluation at several points.
        for val in (-2, 0, 3):
            env = {sym.name: 2 for sym in _SYMS}
            env[s.name] = val
            assert eval_form(form, env) == eval_form(form.drop(s), env) + val * eval_form(lin, env)


# ---------------------------------------------------------------------------
# Register allocator invariants
# ---------------------------------------------------------------------------


@st.composite
def instruction_streams(draw):
    """Random structured VIR streams with balanced loop markers."""
    ra = VRegAllocator()
    live: list = []
    instrs = []
    depth = 0
    for _ in range(draw(st.integers(3, 40))):
        choice = draw(st.integers(0, 9))
        if choice == 0 and depth < 2:
            instrs.append(Instr(Op.LOOP_BEGIN))
            depth += 1
        elif choice == 1 and depth > 0:
            instrs.append(Instr(Op.LOOP_END))
            depth -= 1
        else:
            srcs = tuple(
                draw(st.sampled_from(live)) for _ in range(draw(st.integers(0, min(2, len(live)))))
            ) if live else ()
            bits = draw(st.sampled_from([32, 64]))
            dst = ra.fresh(bits=bits)
            live.append(dst)
            instrs.append(Instr(Op.ADD, dst=dst, srcs=srcs))
    while depth > 0:
        instrs.append(Instr(Op.LOOP_END))
        depth -= 1
    instrs.append(Instr(Op.RET))
    return instrs


class TestAllocatorProperties:
    @given(instruction_streams())
    @settings(max_examples=50)
    def test_pressure_bounds(self, instrs):
        intervals = compute_live_intervals(instrs)
        pressure = max_pressure(intervals)
        total_units = sum(iv.vreg.units for iv in intervals)
        assert 0 <= pressure <= total_units

    @given(instruction_streams())
    @settings(max_examples=50)
    def test_intervals_cover_all_occurrences(self, instrs):
        intervals = {iv.vreg.id: iv for iv in compute_live_intervals(instrs)}
        for pos, ins in enumerate(instrs):
            for reg in (ins.dst, *ins.srcs):
                if reg is None:
                    continue
                iv = intervals[reg.id]
                assert iv.start <= pos <= iv.end

    @given(instruction_streams(), st.integers(8, 64))
    @settings(max_examples=50)
    def test_limit_always_respected(self, instrs, limit):
        from repro.codegen.vir import VirKernel

        info = ptxas_info(VirKernel(name="p", instrs=instrs), register_limit=limit)
        assert info.registers <= limit


# ---------------------------------------------------------------------------
# Occupancy monotonicity
# ---------------------------------------------------------------------------


class TestOccupancyProperties:
    @given(st.integers(1, 255), st.integers(32, 1024))
    def test_occupancy_within_bounds(self, regs, tpb):
        occ = compute_occupancy(regs, tpb)
        assert 0.0 <= occ.occupancy <= 1.0

    @given(st.integers(1, 254), st.integers(32, 1024))
    def test_more_registers_never_raise_occupancy(self, regs, tpb):
        a = compute_occupancy(regs, tpb)
        b = compute_occupancy(regs + 1, tpb)
        assert b.active_warps <= a.active_warps


# ---------------------------------------------------------------------------
# End-to-end: random stencil programs, SR equivalence
# ---------------------------------------------------------------------------


@st.composite
def stencil_programs(draw):
    """A random seq-loop kernel with reuse chains of varying offsets."""
    offsets = sorted(draw(st.sets(st.integers(-2, 2), min_size=2, max_size=4)))
    span = max(offsets) - min(offsets)
    terms = " + ".join(f"b[i + {o}]" if o >= 0 else f"b[i - {-o}]" for o in offsets)
    coef = draw(st.floats(0.25, 2.0, allow_nan=False))
    src = f"""
    kernel k(double a[n], const double b[n], int n) {{
      #pragma acc kernels loop gang vector(64)
      for (j = 0; j < 4; j++) {{
        #pragma acc loop seq
        for (i = 3; i < n - 3; i++) {{
          a[i] = ({terms}) * {coef!r};
        }}
      }}
    }}
    """
    return src, span


class TestScalarReplacementProperty:
    @given(stencil_programs(), st.integers(10, 24), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_safara_equivalence_on_random_stencils(self, program, n, seed):
        from repro.compiler import CompilerSession

        src, span = program
        rng = np.random.default_rng(seed)
        b = rng.uniform(-1, 1, size=n)
        a1 = np.zeros(n)
        a2 = np.zeros(n)

        fn1 = build_module(parse_program(src)).functions[0]
        run_kernel(fn1, {"a": a1, "b": b.copy(), "n": n})

        fn2 = build_module(parse_program(src)).functions[0]
        report, _ = CompilerSession().optimize_region(
            fn2.regions()[0], fn2.symtab
        )
        run_kernel(fn2, {"a": a2, "b": b.copy(), "n": n})

        np.testing.assert_array_equal(a1, a2)
        if span > 0:
            assert report.groups_replaced >= 1


# ---------------------------------------------------------------------------
# Reuse-group invariants
# ---------------------------------------------------------------------------


@st.composite
def reuse_loops(draw):
    """Random seq-loop bodies mixing chains, duplicates and invariants."""
    parts = []
    arrays = ["b", "c"]
    for _ in range(draw(st.integers(1, 4))):
        arr = draw(st.sampled_from(arrays))
        off = draw(st.integers(-2, 2))
        idx = f"i + {off}" if off >= 0 else f"i - {-off}"
        if draw(st.booleans()):
            idx = "0"  # invariant reference
        parts.append(f"{arr}[{idx}]")
    body = " + ".join(parts)
    return f"""
    kernel k(double a[n], const double b[n], const double c[n], int n) {{
      #pragma acc loop seq
      for (i = 3; i < n - 3; i++) {{
        a[i] = {body};
      }}
    }}
    """


class TestReuseGroupProperties:
    @given(reuse_loops())
    @settings(max_examples=60, deadline=None)
    def test_group_invariants(self, src):
        from repro.analysis import find_reuse_groups
        from repro.lang import parse_program as _pp

        fn = build_module(_pp(src)).functions[0]
        loop = fn.body[0]
        for g in find_reuse_groups(loop):
            # Lags normalised: generator at 0, span = max lag.
            assert min(g.lags) == 0
            assert g.span == max(g.lags)
            assert len(g.lags) == g.ref_count
            # Savings never exceed the reads in the group.
            reads = sum(1 for o in g.occurrences if not o.is_write)
            assert 0 <= g.loads_saved() <= reads
            # Temporaries: one per lag slot.
            assert g.temporaries_needed() == (g.span + 1 if g.kind.value == "inter" else 1)

    @given(reuse_loops(), st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_safara_never_increases_dynamic_loads(self, src, seed):
        from repro.lang import parse_program as _pp

        n = 16
        rng = np.random.default_rng(seed)
        b = rng.uniform(size=n)
        c = rng.uniform(size=n)

        def run(transform):
            fn = build_module(_pp(src)).functions[0]
            if transform:
                # Wrap the loop in a fake region? Not needed: SAFARA works on
                # regions; use the loop-level machinery directly instead.
                from repro.analysis import find_reuse_groups
                from repro.transforms import can_replace, replace_group

                loop = fn.body[0]
                for g in list(find_reuse_groups(loop)):
                    if can_replace(g, allow_inter=True):
                        replace_group(fn.body, loop, g, fn.symtab)
            a = np.zeros(n)
            _, stats = run_kernel(fn, {"a": a, "b": b.copy(), "c": c.copy(), "n": n})
            return a, stats

        a_ref, s_ref = run(False)
        a_xf, s_xf = run(True)
        np.testing.assert_array_equal(a_ref, a_xf)
        assert s_xf.loads <= s_ref.loads


# ---------------------------------------------------------------------------
# Vectorized execution engine: scalar interpreter equivalence
# ---------------------------------------------------------------------------


@st.composite
def vectorizable_programs(draw):
    """Random parallel kernels from the planner's safe fragment: stencil
    reads at random offsets, optional lane-varying guards (mask semantics),
    optional inner sequential accumulation, C-truncating integer div/mod."""
    offsets = sorted(draw(st.sets(st.integers(-2, 2), min_size=1, max_size=3)))
    coefs = [draw(st.floats(0.25, 2.0, allow_nan=False)) for _ in offsets]
    terms = " + ".join(
        f"b[i + {o}] * {c!r}" if o >= 0 else f"b[i - {-o}] * {c!r}"
        for o, c in zip(offsets, coefs)
    )
    update = f"a[i] = {terms};"
    if draw(st.booleans()):  # lane-varying guard: both-sides mask semantics
        update = (
            f"if (b[i] > 1.0) {{ {update} }} "
            f"else {{ a[i] = b[i] * 0.125 - i; }}"
        )
    if draw(st.booleans()):  # inner sequential loop over a private scalar
        width = draw(st.integers(1, 3))
        update = f"""
          double acc = 0.0;
          #pragma acc loop seq
          for (k = 0; k < {width}; k++) {{ acc = acc + b[i + k] * 0.25; }}
          {update}
          a[i] = a[i] + acc;
        """
    divisor = draw(st.integers(2, 5))
    src = f"""
    kernel k(double a[n], const double b[n], int q[n], const int p[n], int n) {{
      #pragma acc kernels loop gang vector(64)
      for (i = 2; i < n - 3; i++) {{
        {update}
      }}
      #pragma acc kernels loop gang vector(64)
      for (i = 0; i < n; i++) {{
        q[i] = (p[i] * 7 - 11) / {divisor} + (p[i] * 5 - 7) % {divisor};
      }}
    }}
    """
    return src


@st.composite
def fallback_programs(draw):
    """Random kernels built around one construct the planner must reject."""
    kind = draw(st.sampled_from(["overlap", "carried", "escape"]))
    if kind == "overlap":
        body = "a[i] = a[i + 1] * 0.5 + b[i];"
        prefix, suffix = "", ""
    elif kind == "carried":
        prefix = "double s = 0.0;"
        body = "s = s * 0.5 + b[i]; a[i] = s;"
        suffix = ""
    else:
        prefix = "double s = 0.0;"
        body = "s = b[i] * 2.0; a[i] = s;"
        suffix = "a[0] = s;"
    return f"""
    kernel k(double a[n], const double b[n], int n) {{
      {prefix}
      #pragma acc kernels loop gang vector(64)
      for (i = 0; i < n - 1; i++) {{ {body} }}
      {suffix}
    }}
    """


@st.composite
def subscript_reuse_programs(draw):
    """Random parallel kernels repeating subscripts of a private scalar
    ``m`` (one of them rebased against a declared lower bound) across
    every place a generated block's value numbers must not leak through:
    a reassignment of ``m``, an ``If`` arm that reassigns it under a lane
    mask, a ternary or short-circuit right-hand side, and a sequential
    loop whose bounds vary per lane.  ``b[n - 4]`` reads only a launch
    parameter, so a temp leaking out of a nested block would be read
    where it was never bound."""
    d, e, o = (draw(st.integers(-1, 1)) for _ in range(3))
    sub = f"m + {o}" if o >= 0 else f"m - {-o}"
    lazy = draw(st.sampled_from(["?", "&&", "||"]))
    if lazy == "?":
        use = f"a[i] = a[i] + ((b[i] > 1.0) ? b[{sub}] : b[n - 4]);"
    else:
        use = (
            f"if (b[i] > 1.0 {lazy} b[{sub}] > b[n - 4]) "
            f"{{ a[i] = a[i] + c[{sub} + 1]; }}"
        )
    return f"""
    kernel k(double a[n], const double b[n], const double c[1:n], int n) {{
      #pragma acc kernels loop gang vector(64)
      for (i = 3; i < n - 3; i++) {{
        int m = i + {d};
        a[i] = b[{sub}] * 0.5 + c[{sub} + 1];
        m = m + {e};
        a[i] = a[i] + b[{sub}] - c[{sub} + 1] * 0.25;
        if (b[i] > 1.0) {{ a[i] = a[i] + b[{sub}] * b[n - 4]; m = m - {e}; }}
        a[i] = a[i] + b[{sub}] + b[n - 4];
        {use}
        #pragma acc loop seq
        for (k = i - 2; k < i; k++) {{
          a[i] = a[i] + b[{sub}] * 0.125 + b[k + 1] - c[{sub} + 1];
        }}
      }}
    }}
    """


class TestVectorExecutionProperty:
    def _run_both(self, src, n, seed, **kw):
        from repro.gpu.vector_exec import execute_kernel

        rng = np.random.default_rng(seed)
        b = rng.uniform(0.5, 2.0, size=n)
        p = rng.integers(-3, 4, size=n).astype(np.int32)

        def args():
            return {
                "a": np.zeros(n),
                "b": b.copy(),
                "q": np.zeros(n, dtype=np.int32),
                "p": p.copy(),
                "c": b[::-1].copy(),
                "n": n,
            }

        fn = build_module(parse_program(src)).functions[0]
        wanted = {prm.name for prm in fn.params}
        s_arrays, s_stats = run_kernel(
            fn, {k: v for k, v in args().items() if k in wanted}
        )
        fn2 = build_module(parse_program(src)).functions[0]
        v_arrays, v_stats, info = execute_kernel(
            fn2, {k: v for k, v in args().items() if k in wanted}, **kw
        )
        return s_arrays, s_stats, v_arrays, v_stats, info

    @given(vectorizable_programs(), st.integers(8, 24), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_vector_path_is_bit_identical(self, src, n, seed):
        s_arrays, s_stats, v_arrays, v_stats, info = self._run_both(src, n, seed)
        assert info.used == "codegen"
        for name in s_arrays:
            np.testing.assert_array_equal(s_arrays[name], v_arrays[name])
        assert s_stats == v_stats

    @given(vectorizable_programs(), st.integers(8, 24), st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_generated_source_round_trips_through_text(self, src, n, seed):
        """Generated programs are never persisted as text; what remains of
        the warm path is a function-cache hit (same content key) running
        the program made from one parse on a fresh parse's launch, which
        must match the oracle."""
        import hashlib

        from repro.obs.metrics import MetricsRegistry

        key = "prop:" + hashlib.sha256(src.encode()).hexdigest()
        self._run_both(src, n, seed, content_key=key)
        m = MetricsRegistry()
        s_arrays, s_stats, v_arrays, v_stats, info = self._run_both(
            src, n, seed, content_key=key, metrics=m
        )
        assert info.used == "codegen"
        assert m.get("cache.fnobj.hits").value == 1
        for name in s_arrays:
            np.testing.assert_array_equal(s_arrays[name], v_arrays[name])
        assert s_stats == v_stats

    @given(subscript_reuse_programs(), st.integers(8, 24), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_shared_subscripts_match_the_oracle(self, src, n, seed):
        """Generated blocks compute each subscript once and share it; the
        sharing must never reach past a write or out of its block."""
        s_arrays, s_stats, v_arrays, v_stats, info = self._run_both(src, n, seed)
        assert info.used == "codegen", info.fallback_reason
        for name in s_arrays:
            np.testing.assert_array_equal(s_arrays[name], v_arrays[name])
        assert s_stats == v_stats

    @given(fallback_programs(), st.integers(8, 24), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_fallback_reports_reason_and_matches_scalar(self, src, n, seed):
        s_arrays, s_stats, v_arrays, v_stats, info = self._run_both(src, n, seed)
        assert info.used == "scalar"
        assert info.fallback_reason
        for name in s_arrays:
            np.testing.assert_array_equal(s_arrays[name], v_arrays[name])
        assert s_stats == v_stats
