"""Typed emission: generated programs specialised on the launch's
argument kinds, with range guards discharged once per launch.

Every test here holds the generated program to the scalar oracle: outputs
bit-identical and :class:`~repro.gpu.interpreter.ExecutionStats` equal, or
a fallback with a stated reason that then reproduces the oracle exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import NAS, SPEC, load_all
from repro.bench.args import build_test_args, copy_args
from repro.codegen import numpy_source
from repro.codegen.numpy_source import (
    CodegenUnsupported,
    FunctionCache,
    declared_signature,
    generate_source,
    get_or_compile,
    guard_census,
)
from repro.gpu.interpreter import bind_arguments, run_kernel
from repro.gpu.vector_exec import (
    VectorUnsupported,
    argument_signature,
    execute_kernel,
)
from repro.ir import build_module
from repro.lang import parse_program
from repro.obs.metrics import MetricsRegistry


def lower(src):
    return build_module(parse_program(src)).functions[0]


def oracle_match(src, args, **kw):
    """Run the oracle and ``auto`` on copies; assert bit-identity and equal
    stats; return the execution info."""
    s_arrays, s_stats = run_kernel(lower(src), copy_args(args))
    v_arrays, v_stats, info = execute_kernel(lower(src), copy_args(args), **kw)
    assert sorted(s_arrays) == sorted(v_arrays)
    for name in s_arrays:
        np.testing.assert_array_equal(s_arrays[name], v_arrays[name], err_msg=name)
    assert s_stats == v_stats
    return info


@pytest.fixture(autouse=True)
def fresh_function_cache(monkeypatch):
    monkeypatch.setattr(numpy_source, "_CACHE", FunctionCache())


SCALE = """
kernel k(double a[n], const double b[n], double s, int m, int n) {
  #pragma acc kernels loop gang vector(64)
  for (i = 0; i < n; i++) { a[i] = b[i] * s + m * i; }
}
"""


def scale_args(s=1.5, m=3, n=9):
    rng = np.random.default_rng(1)
    return {"a": np.zeros(n), "b": rng.uniform(0.5, 2.0, n), "s": s, "m": m, "n": n}


class TestBenchmarks:
    def test_all_16_match_the_oracle_on_their_expected_tier(self):
        load_all()
        used, reasons = {}, {}
        for spec in list(SPEC.all()) + list(NAS.all()):
            fn, args = build_test_args(spec)
            s_arrays, s_stats = run_kernel(fn, copy_args(args))
            fn2, args2 = build_test_args(spec)
            c_arrays, c_stats, info = execute_kernel(
                fn2, args2, content_key=f"typed:{spec.name}"
            )
            for name in s_arrays:
                np.testing.assert_array_equal(
                    s_arrays[name], c_arrays[name], err_msg=f"{spec.name}:{name}"
                )
            assert s_stats == c_stats, spec.name
            used[spec.name] = info.used
            reasons[spec.name] = info.fallback_reason
        scalar = {name for name, tier in used.items() if tier == "scalar"}
        assert scalar == {"352.ep", "EP"}, used
        # The EP kernels' LCG leaves the int64-safe product range at run
        # time, in data-dependent locals no launch range check can cover.
        for name in scalar:
            assert reasons[name] == (
                "VectorUnsupported: operator '/': weak integer exceeds safe range"
            )

    def test_every_generated_kernel_discharges_guards_statically(self):
        load_all()
        for spec in list(SPEC.all()) + list(NAS.all()):
            fn, _ = build_test_args(spec)
            census = guard_census(fn)
            static = sum(s for s, _ in census.values())
            assert static > 0, spec.name


class TestArgumentKinds:
    @pytest.mark.parametrize(
        "s, m",
        [
            (2, 3),  # a Python int for a double parameter
            (np.float32(1.25), np.int32(3)),  # NumPy scalars
            (1.5, 2.5),  # a Python float for an int parameter
            (np.float64(0.75), np.int64(-4)),
        ],
    )
    def test_variants_match_the_oracle(self, s, m):
        info = oracle_match(SCALE, scale_args(s=s, m=m), executor="auto")
        assert info.used == "codegen"

    def test_float_loop_bound_falls_back_with_reason(self):
        src = SCALE.replace("i < n", "i < m")
        args = scale_args(m=2.5)
        s_err = v_err = None
        try:
            run_kernel(lower(src), copy_args(args))
        except Exception as exc:  # noqa: BLE001 — compared below
            s_err = type(exc)
        try:
            execute_kernel(lower(src), copy_args(args))
        except Exception as exc:  # noqa: BLE001 — compared below
            v_err = type(exc)
        assert s_err is not None and v_err is s_err
        with pytest.raises(CodegenUnsupported, match="non-integer scalar 'm'"):
            execute_kernel(lower(src), copy_args(args), executor="codegen")

    def test_two_signatures_make_two_cache_entries(self):
        m = MetricsRegistry()
        fn = lower(SCALE)
        execute_kernel(fn, scale_args(s=1.5), content_key="sig", metrics=m)
        execute_kernel(fn, scale_args(s=2), content_key="sig", metrics=m)
        execute_kernel(fn, scale_args(s=0.5), content_key="sig", metrics=m)
        keys = sorted(numpy_source._CACHE._map, key=repr)
        assert [k[0] for k in keys] == ["sig", "sig"]
        assert {dict(k[1])["s"] for k in keys} == {"pyfloat", "pyint"}
        assert m.get("codegen.generate_ms").count == 2
        assert m.get("cache.fnobj.hits").value == 1

    def test_program_refuses_other_argument_kinds(self):
        from repro.gpu.interpreter import bind_arguments
        from repro.gpu.vector_exec import VectorInterpreter

        fn = lower(SCALE)
        gk = get_or_compile(fn, signature=declared_signature(fn))
        interp = VectorInterpreter(*bind_arguments(fn, scale_args(s=2)))
        with pytest.raises(VectorUnsupported, match="argument kinds"):
            gk.run(interp)

    @given(
        st.sampled_from([int, np.int32, np.int64]),
        st.sampled_from([float, int, np.float32, np.float64]),
        st.sampled_from([np.float64, np.float32]),
        st.integers(4, 20),
    )
    @settings(max_examples=25, deadline=None)
    def test_mixed_kinds_match_the_oracle(self, n_type, s_type, dtype, n):
        src = """
        kernel k(double a[n], const double b[n], double s, int n) {
          #pragma acc kernels loop gang vector(64)
          for (i = 1; i < n - 1; i++) {
            double t = b[i - 1] * s + b[i + 1];
            if (t > 2.0) { a[i] = t / s - i; } else { a[i] = t * 0.5 + s; }
          }
        }
        """
        rng = np.random.default_rng(n)
        args = {
            "a": np.zeros(n, dtype=dtype),
            "b": rng.uniform(0.5, 2.0, n).astype(dtype),
            "s": s_type(3),
            "n": n_type(n),
        }
        info = oracle_match(src, args)
        assert info.used == "codegen", info.fallback_reason


CONSTRUCT = """
kernel k(double a[n], const double b[n], int q[n], double s, int m, int n) {
  PRE
  #pragma acc kernels loop gang vector(64)
  for (i = 0; i < n; i++) { BODY }
}
"""


def construct(pre, body, **overrides):
    """``CONSTRUCT`` around ``pre``/``body`` and its arguments."""
    n = 9
    args = {
        "a": np.zeros(n), "b": np.random.default_rng(7).uniform(0.5, 2.0, n),
        "q": np.zeros(n, dtype=np.int32), "s": 1.5, "m": 1, "n": n, **overrides,
    }
    return CONSTRUCT.replace("PRE", pre).replace("BODY", body), args

#: One small vectorized kernel per construct whose runtime helper no
#: benchmark's generated program calls, then the intrinsics: (case, code
#: before the axis loop, loop body, helper, argument overrides).
CONSTRUCTS = [
    ("ternary", "", "a[i] = b[i] > 1.2 ? b[i] : 2.0 * b[i];", "_sel", {}),
    ("logic", "", "if (b[i] > 1.0 && i > 2 || i == 0) { a[i] = b[i]; }", "_lg", {}),
    ("uninitialised-local", "int t;", "a[i] = b[i] + t;", "_dd", {}),
    ("checked-int-store", "", "q[i] = b[i] * 7.0;", "_stc", {}),
    (
        "masked-proven-load",
        "",
        "double s = 0.0; for (j = 0; j < i; j++) { s = s + b[j]; } a[i] = s;",
        "_clp",
        {},
    ),
    # An int parameter given a Python float: the subscript's kind is float.
    ("float-subscript", "", "a[i] = b[m] * b[i];", "_fi", {"m": 2.0}),
    ("float-to-int-assignment", "", "int k = b[i] * 5.0; q[i] = k;", "_fi", {}),
    ("float-to-int-cast", "", "a[i] = (int) (b[i] * 5.0);", "_fi", {}),
    ("float-cast", "", "a[i] = (float) b[i] * 3.0;", "_f32", {}),
    ("sqrt", "", "a[i] = sqrt(b[i] - 0.5);", "_sqrt", {}),
    ("libm", "", "a[i] = pow(b[i], 1.5) + exp(b[i]) * log(b[i]);", "_math", {}),
    ("min-max", "", "a[i] = max(min(b[i], b[0]), b[1]);", "_pick", {}),
    ("abs", "", "a[i] = fabs(b[i] - 1.2);", "_abs", {}),
    ("floor", "", "q[i] = floor(b[i] * 3.0) + ceil(i);", "_floor", {}),
]


class TestConstructCoverage:
    @pytest.mark.parametrize(
        "pre, body, helper, overrides",
        [c[1:] for c in CONSTRUCTS],
        ids=[c[0] for c in CONSTRUCTS],
    )
    def test_construct_runs_typed_and_matches_the_oracle(
        self, pre, body, helper, overrides
    ):
        src, args = construct(pre, body, **overrides)
        fn = lower(src)
        scalars, arrays, _ = bind_arguments(fn, args)
        source = generate_source(fn, signature=argument_signature(scalars, arrays))
        assert f"{helper}(" in source.text
        info = oracle_match(src, args)
        assert info.used == "codegen", info.fallback_reason


class TestKindConflicts:
    """A value whose kind would depend on the path or the data is not
    typed: the kernel runs on the scalar oracle, with a counted reason."""

    @pytest.mark.parametrize(
        "pre, body, reason, slug",
        [
            # A NumPy-scalar parameter re-assigned (as a Python float) on
            # one path, outside the axis loop: lane-uniform, still untyped.
            (
                "if (n > 3) { s = 2.0; }",
                "a[i] = b[i] * s;",
                "scalar 's' holds different kinds on different paths",
                "scalar_holds_different_kinds_on_different_paths",
            ),
            (
                "",
                "a[i] = i > 2 ? b[i] : i;",
                "ternary arms of different kinds (f64 vs pyint)",
                "ternary_arms_of_different_kinds",
            ),
            (
                "",
                "a[i] = min(b[i], s);",
                "min over mixed kinds (f64, f32)",
                "min_over_mixed_kinds",
            ),
        ],
        ids=["parameter-reassigned", "ternary-arms", "min-arguments"],
    )
    def test_conflict_falls_back_with_a_counted_reason(self, pre, body, reason, slug):
        src, args = construct(pre, body, s=np.float32(1.5))
        m = MetricsRegistry()
        info = oracle_match(src, args, metrics=m)
        assert info.used == "scalar"
        assert info.fallback_reason == f"CodegenUnsupported: {reason}"
        assert m.get(f"codegen.fallbacks.{slug}").value == 1

    def test_float_modulo_is_refused_when_generating(self):
        src, args = construct("", "a[i] = b[i] % 2;")
        with pytest.raises(CodegenUnsupported, match="'%' on a float operand"):
            execute_kernel(lower(src), args, executor="codegen")


class TestLaunchRangeCheck:
    HUGE = """
    kernel k(double a[n], int n, int w) {
      #pragma acc kernels loop gang vector(64)
      for (i = 0; i < n; i++) { a[i] = (i * w) * 0.5; }
    }
    """

    def test_index_arithmetic_beyond_2_31_falls_back(self):
        args = {"a": np.zeros(6), "n": 6, "w": 2**31}
        info = oracle_match(self.HUGE, args)
        assert info.used == "scalar"
        assert info.fallback_reason.startswith(
            "VectorUnsupported: launch range check: a weak-integer operand "
            "spans [2147483648, 2147483648]"
        )

    def test_same_program_runs_typed_in_range(self):
        info = oracle_match(self.HUGE, {"a": np.zeros(6), "n": 6, "w": 7})
        assert info.used == "codegen"

    def test_facts_are_rechecked_for_new_launch_values(self):
        """One cached program; the facts passed for w=7 must not excuse
        w=2**31 (they are remembered per tuple of launch values)."""
        fn = lower(self.HUGE)
        for w, tier in ((7, "codegen"), (7, "codegen"), (2**31, "scalar"), (7, "codegen")):
            _, _, info = execute_kernel(
                fn, {"a": np.zeros(6), "n": 6, "w": w}, content_key="facts"
            )
            assert info.used == tier, (w, info.fallback_reason)
        assert len(numpy_source._CACHE._map) == 1

    def test_out_of_bounds_unmasked_subscript_fails_at_launch(self):
        src = """
        kernel k(double a[n], const double b[m], int n, int m) {
          #pragma acc kernels loop gang vector(64)
          for (i = 0; i < n; i++) { a[i] = b[i + 1]; }
        }
        """
        args = {"a": np.zeros(5), "b": np.ones(5), "n": 5, "m": 5}
        with pytest.raises(VectorUnsupported, match="launch range check: subscript 0 of 'b'"):
            execute_kernel(lower(src), copy_args(args), executor="codegen")
        with pytest.raises(Exception, match="out-of-bounds"):
            execute_kernel(lower(src), copy_args(args))  # the oracle's own error

    def test_masked_subscript_keeps_its_dynamic_guard(self):
        src = """
        kernel k(double a[n], const double b[n], int n) {
          #pragma acc kernels loop gang vector(64)
          for (i = 0; i < n; i++) { if (i > 0) { a[i] = b[i - 1]; } }
        }
        """
        source = generate_source(lower(src))
        assert "_bnd(" in source.text  # b[i - 1] is checked per launch lane
        args = {"a": np.zeros(7), "b": np.arange(7.0), "n": 7}
        info = oracle_match(src, args, executor="codegen")
        assert info.used == "codegen"


class TestLoudFailures:
    def test_bug_in_cached_program_propagates_under_auto(self):
        fn = lower(SCALE)
        execute_kernel(fn, scale_args(), content_key="bug")

        def bug(interp):
            raise IndexError("synthetic generated-code bug")

        for gk in numpy_source._CACHE._map.values():
            gk.func = bug
        with pytest.raises(IndexError, match="synthetic generated-code bug"):
            execute_kernel(fn, scale_args(), executor="auto", content_key="bug")

    def test_fallbacks_are_counted_by_reason(self):
        m = MetricsRegistry()
        args = {"a": np.zeros(6), "n": 6, "w": 2**31}
        _, _, info = execute_kernel(lower(TestLaunchRangeCheck.HUGE), args, metrics=m)
        assert info.used == "scalar"
        counter = m.get("codegen.fallbacks.launch_range_check_a_weak_integer_operand_spans")
        assert counter is not None and counter.value == 1
