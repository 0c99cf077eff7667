"""The generated-NumPy execution tier (`repro.codegen.numpy_source`).

Whatever the generated program does, outputs and
:class:`~repro.gpu.interpreter.ExecutionStats` are *exactly* those of the
scalar interpreter.  That holds by construction — the generated source
calls runtime primitives that replay the interpreter's semantics, in the
interpreter's order — and these tests pin the construction down: all 16
benchmarks bit-identical, cached programs serving later parses, the
sealed exec namespace, cache behaviour, and the fallback ladder.
"""

import dataclasses

import numpy as np
import pytest

from repro.bench import NAS, SPEC, load_all
from repro.bench.args import build_test_args, copy_args
from repro.codegen import numpy_source
from repro.codegen.numpy_source import (
    CodegenUnsupported,
    FunctionCache,
    bind_source,
    compile_kernel,
    generate_source,
    get_or_compile,
)
from repro.gpu.interpreter import run_kernel
from repro.gpu.vector_exec import VectorUnsupported, execute_kernel
from repro.ir import build_module
from repro.lang import parse_program
from repro.obs.metrics import MetricsRegistry

SRC = """
kernel k(double a[n], const double b[n], int n) {
  #pragma acc kernels loop gang vector(64)
  for (i = 0; i < n; i++) { a[i] = b[i] * 3.0 + i; }
}
"""


def lower(src):
    return build_module(parse_program(src)).functions[0]


def _args(n=7, seed=0):
    rng = np.random.default_rng(seed)
    return {"a": np.zeros(n), "b": rng.uniform(0.5, 2.0, n), "n": n}


class TestBenchmarkOracle:
    """All 16 modelled benchmarks against the scalar oracle."""

    def _specs(self):
        load_all()
        return list(SPEC.all()) + list(NAS.all())

    def test_all_benchmarks_bit_identical_with_equal_stats(self):
        used = {}
        for spec in self._specs():
            fn, args = build_test_args(spec)
            s_arrays, s_stats = run_kernel(fn, copy_args(args))
            fn2, args2 = build_test_args(spec)
            c_arrays, c_stats, info = execute_kernel(
                fn2, args2, content_key=f"test:{spec.name}"
            )
            used[spec.name] = info.used
            assert sorted(s_arrays) == sorted(c_arrays), spec.name
            for name in s_arrays:
                np.testing.assert_array_equal(
                    s_arrays[name], c_arrays[name], err_msg=f"{spec.name}:{name}"
                )
            assert s_stats == c_stats, spec.name
        # 14 of 16 run on generated code; the EP kernels' LCG exceeds the
        # int64-safe product range by design and must reach the oracle.
        assert sum(1 for u in used.values() if u == "codegen") >= 14, used
        assert used["352.ep"] == "scalar"
        assert used["EP"] == "scalar"

    def test_strict_codegen_raises_where_auto_falls_back(self):
        load_all()
        fn, args = build_test_args(SPEC.get("352.ep"))
        with pytest.raises(VectorUnsupported):
            execute_kernel(fn, args, executor="codegen")


class TestGeneratedSource:
    def test_generation_is_deterministic(self):
        assert generate_source(lower(SRC)).text == generate_source(lower(SRC)).text

    def test_cross_parse_rebinding_matches_scalar(self, monkeypatch):
        """A function-cache hit (same content key) runs the program made
        from one parse on another parse's launch, matching the oracle."""
        monkeypatch.setattr(numpy_source, "_CACHE", FunctionCache())
        m = MetricsRegistry()
        execute_kernel(lower(SRC), _args(seed=1), content_key="parse", metrics=m)
        args = _args()
        arrays, stats, info = execute_kernel(
            lower(SRC), copy_args(args), content_key="parse", metrics=m
        )
        assert info.used == "codegen"
        assert m.get("cache.fnobj.hits").value == 1
        s_arrays, s_stats = run_kernel(lower(SRC), copy_args(args))
        np.testing.assert_array_equal(arrays["a"], s_arrays["a"])
        assert stats == s_stats


class TestBindValidation:
    def test_generated_source_has_no_builtins(self):
        """The exec namespace is sealed: generated text can only reach the
        interpreter primitives handed to it."""
        source = generate_source(lower(SRC))
        evil = source.text.replace(
            "def __kernel__(R):", "def __kernel__(R):\n        open('/x')", 1
        )
        gk = bind_source(dataclasses.replace(source, text=evil))
        from repro.gpu.interpreter import bind_arguments
        from repro.gpu.vector_exec import VectorInterpreter

        fn = lower(SRC)
        scalars, arrays, lowers = bind_arguments(fn, _args())
        interp = VectorInterpreter(scalars, arrays, lowers)
        with pytest.raises(NameError):
            gk.run(interp)

    def test_program_that_fails_to_compile_raises_under_auto(self, monkeypatch):
        """Our own program failing to compile is a generator bug, not a
        fallback."""
        generate = numpy_source.generate_source

        def broken(*a, **k):
            source = generate(*a, **k)
            return dataclasses.replace(source, text=source.text + "\ndef broken(:\n")

        monkeypatch.setattr(numpy_source, "_CACHE", FunctionCache())
        monkeypatch.setattr(numpy_source, "generate_source", broken)
        with pytest.raises(SyntaxError):
            execute_kernel(lower(SRC), _args(), executor="auto")


class TestFallbackLadder:
    def test_generation_failure_falls_back_to_scalar(self, monkeypatch):
        from repro.gpu.vector_exec import fallback_listener

        def boom(fn, plan=None, **kw):
            raise CodegenUnsupported("synthetic generation failure")

        monkeypatch.setattr(numpy_source, "get_or_compile", boom)
        heard = []
        with fallback_listener(lambda *event: heard.append(event)):
            arrays, stats, info = execute_kernel(lower(SRC), _args())
        assert info.used == "scalar"
        assert info.fallback_reason == (
            "CodegenUnsupported: synthetic generation failure"
        )
        assert heard == [("k", info.fallback_reason)]
        s_arrays, s_stats = run_kernel(lower(SRC), _args())
        np.testing.assert_array_equal(arrays["a"], s_arrays["a"])
        assert stats == s_stats

    def test_generator_bug_propagates_under_auto(self, monkeypatch):
        """Only ``CodegenUnsupported`` means "fall back": any other
        exception from generation is a bug and must surface."""

        def bug(fn, plan=None, **kw):
            raise IndexError("synthetic generator bug")

        monkeypatch.setattr(numpy_source, "get_or_compile", bug)
        with pytest.raises(IndexError, match="synthetic generator bug"):
            execute_kernel(lower(SRC), _args())

    def test_generation_failure_raises_when_pinned(self, monkeypatch):
        def boom(fn, plan=None, **kw):
            raise CodegenUnsupported("synthetic generation failure")

        monkeypatch.setattr(numpy_source, "get_or_compile", boom)
        with pytest.raises(CodegenUnsupported):
            execute_kernel(lower(SRC), _args(), executor="codegen")

    def test_unplannable_kernel_reaches_scalar(self):
        src = """
        kernel k(double a[n], const double b[n], int n) {
          #pragma acc kernels loop gang vector(64)
          for (i = 0; i < n - 1; i++) { a[i] = a[i + 1] * 0.5 + b[i]; }
        }
        """
        _, _, info = execute_kernel(lower(src), _args())
        assert info.used == "scalar"
        assert info.fallback_reason
        with pytest.raises(VectorUnsupported):
            execute_kernel(lower(src), _args(), executor="codegen")

    def test_unknown_statement_raises_codegen_unsupported(self):
        from repro.ir.stmt import Stmt

        class Mystery(Stmt):
            pass

        fn = lower(SRC)
        fn.body.append(Mystery())
        with pytest.raises(CodegenUnsupported, match="unknown statement"):
            generate_source(fn)


class TestFunctionCache:
    def test_content_key_hits_skip_generation(self, monkeypatch):
        cache = FunctionCache()
        monkeypatch.setattr(numpy_source, "_CACHE", cache)
        m = MetricsRegistry()
        fn = lower(SRC)
        get_or_compile(fn, content_key="deadbeef", metrics=m)
        calls = []
        monkeypatch.setattr(
            numpy_source,
            "compile_kernel",
            lambda *a, **k: calls.append(1),
        )
        gk = get_or_compile(fn, content_key="deadbeef", metrics=m)
        assert gk.source.kernel == "k"
        assert calls == []
        assert m.get("cache.fnobj.hits").value == 1

    def test_metrics_count_hits_and_misses(self, monkeypatch):
        cache = FunctionCache()
        monkeypatch.setattr(numpy_source, "_CACHE", cache)
        m = MetricsRegistry()
        fn = lower(SRC)
        get_or_compile(fn, content_key="deadbeef", metrics=m)
        get_or_compile(fn, content_key="deadbeef", metrics=m)
        assert m.get("cache.fnobj.misses").value == 1
        assert m.get("cache.fnobj.hits").value == 1
        assert m.get("codegen.generate_ms").count == 1

    def test_lru_bound(self):
        cache = FunctionCache(max_entries=2)
        gk = compile_kernel(lower(SRC))
        for key in ("aa", "bb", "cc"):
            cache.put(key, gk)
        assert cache.get("aa") is None  # evicted
        assert cache.get("cc") is gk


class TestWarmFastPath:
    def test_repeat_launches_skip_the_planner(self, monkeypatch):
        import repro.gpu.vector_exec as vx

        cache = FunctionCache()
        monkeypatch.setattr(numpy_source, "_CACHE", cache)
        fn = lower(SRC)
        _, _, info = execute_kernel(fn, _args(), content_key="warm01")
        assert info.used == "codegen"

        def no_plan(*a, **k):
            raise AssertionError("planner must not run on a warm launch")

        monkeypatch.setattr(vx, "plan_kernel", no_plan)
        args = _args()
        m = MetricsRegistry()
        _, stats, info = execute_kernel(
            fn, args, content_key="warm01", metrics=m
        )
        assert info.used == "codegen"
        assert m.get("cache.fnobj.hits").value == 1
        s_arrays, s_stats = run_kernel(lower(SRC), _args())
        np.testing.assert_array_equal(args["a"], s_arrays["a"])
        assert stats == s_stats

    def test_fast_path_preserves_demotion_reasons(self):
        """Demotions travel with the generated program, so the cached
        launch (which never re-plans) still reports them."""
        src = """
        kernel k3(double a[n], const double b[n], double s, int n) {
          #pragma acc kernels loop gang vector(64)
          for (i = 0; i < n; i++) { a[i] = b[i] * 2.0; }
          #pragma acc kernels loop gang vector(64)
          for (i = 0; i < n; i++) { s = s + a[i]; }
        }
        """
        fn = lower(src)
        args = {"a": np.zeros(5), "b": np.ones(5), "s": 0.0, "n": 5}
        _, _, cold = execute_kernel(fn, dict(args), content_key="warm02")
        _, _, warm = execute_kernel(fn, dict(args), content_key="warm02")
        assert cold.used == "codegen" and warm.used == "codegen"
        assert cold.demoted  # a real demotion is present
        assert list(warm.demoted) == list(cold.demoted)


class TestSessionExecute:
    def test_execute_records_codegen_and_caches_function(self, monkeypatch):
        from repro.compiler import CompilerSession

        cache = FunctionCache()
        monkeypatch.setattr(numpy_source, "_CACHE", cache)
        session = CompilerSession()
        for _ in range(2):
            _, _, info = session.execute(
                lower(SRC), _args(), content_key="feed05"
            )
            assert info.used == "codegen"
        d = session.stats_dict()["execution"]
        assert d["codegen"] == 2
        assert session.metrics.get("cache.fnobj.hits").value == 1
