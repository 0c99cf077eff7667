"""Tests for the batched execution runtime (`repro.gpu.vector_exec`),
driven through the generated-code tier.

The central invariant: whatever the engine does, outputs and
:class:`~repro.gpu.interpreter.ExecutionStats` are *exactly* those of the
scalar interpreter — the interpreter's counting rules are the documented
contract and the vector path's analytic counts must reproduce them.
"""

import logging

import numpy as np
import pytest

from repro.bench import NAS, SPEC, load_all
from repro.bench.args import build_test_args, copy_args
import repro
from repro.compiler import CompilerSession
from repro.gpu.interpreter import run_kernel
from repro.gpu.vector_exec import VectorUnsupported, execute_kernel
from repro.ir import build_module
from repro.lang import parse_program


def lower(src):
    return build_module(parse_program(src)).functions[0]


def both(src, args, executor="auto"):
    """Run scalar and the requested engine on independent copies."""
    fn = lower(src)
    s_arrays, s_stats = run_kernel(fn, copy_args(args))
    v_arrays, v_stats, info = execute_kernel(
        lower(src), copy_args(args), executor=executor
    )
    return s_arrays, s_stats, v_arrays, v_stats, info


def assert_equivalent(src, args):
    s_arrays, s_stats, v_arrays, v_stats, info = both(src, args)
    assert sorted(s_arrays) == sorted(v_arrays)
    for name in s_arrays:
        np.testing.assert_array_equal(s_arrays[name], v_arrays[name])
    assert s_stats == v_stats
    # Pinned ``codegen`` must answer itself (no silent scalar fallback)
    # and agree with the oracle bit-for-bit.
    p_arrays, p_stats, p_info = execute_kernel(
        lower(src), copy_args(args), executor="codegen"
    )
    assert p_info.used == "codegen"
    for name in s_arrays:
        np.testing.assert_array_equal(s_arrays[name], p_arrays[name])
    assert s_stats == p_stats
    return info


class TestBenchmarkEquivalence:
    """All 16 modelled benchmarks: bit-identical outputs, equal stats."""

    def _specs(self):
        load_all()
        return list(SPEC.all()) + list(NAS.all())

    def test_all_benchmarks_bit_identical_with_equal_stats(self):
        for spec in self._specs():
            fn, args = build_test_args(spec)
            s_arrays, s_stats = run_kernel(fn, copy_args(args))
            fn2, args2 = build_test_args(spec)
            v_arrays, v_stats, info = execute_kernel(fn2, args2)
            assert sorted(s_arrays) == sorted(v_arrays), spec.name
            for name in s_arrays:
                np.testing.assert_array_equal(
                    s_arrays[name], v_arrays[name], err_msg=f"{spec.name}:{name}"
                )
            assert s_stats == v_stats, spec.name
            if info.used != "codegen":
                assert info.fallback_reason, spec.name

    def test_most_benchmarks_use_codegen(self):
        used = {}
        for spec in self._specs():
            fn, args = build_test_args(spec)
            _, _, info = execute_kernel(fn, args)
            used[spec.name] = info.used
        # Under ``auto`` every vectorizable benchmark runs via codegen.
        compiled = [n for n, u in used.items() if u == "codegen"]
        assert len(compiled) >= 14, used
        # The EP kernels' LCG exceeds the int64-safe product range by design.
        assert used["352.ep"] == "scalar"
        assert used["EP"] == "scalar"

    def test_most_benchmarks_vectorize_when_pinned(self):
        """Pinned ``codegen`` answers every non-EP benchmark itself, with
        the scalar oracle's arrays and stats."""
        used = {}
        for spec in self._specs():
            if spec.name in ("352.ep", "EP"):
                continue
            fn, args = build_test_args(spec)
            s_arrays, s_stats = run_kernel(fn, copy_args(args))
            fn2, args2 = build_test_args(spec)
            c_arrays, c_stats, info = execute_kernel(
                fn2, args2, executor="codegen"
            )
            used[spec.name] = info.used
            for name in s_arrays:
                np.testing.assert_array_equal(
                    s_arrays[name], c_arrays[name], err_msg=f"{spec.name}:{name}"
                )
            assert s_stats == c_stats, spec.name
        assert all(u == "codegen" for u in used.values()), used

    def test_vector_mode_raises_on_unsupported(self):
        load_all()
        spec = SPEC.get("352.ep")
        fn, args = build_test_args(spec)
        with pytest.raises(VectorUnsupported):
            execute_kernel(fn, args, executor="codegen")

    def test_fallback_is_logged(self, caplog):
        load_all()
        spec = SPEC.get("352.ep")
        fn, args = build_test_args(spec)
        with caplog.at_level(logging.INFO, logger="repro.gpu.vector_exec"):
            _, _, info = execute_kernel(fn, args)
        assert info.used == "scalar"
        assert info.fallback_reason
        assert any("falls back to scalar" in r.message for r in caplog.records)


class TestLoweringSemantics:
    def test_nonzero_lower_bound_rebase(self):
        src = """
        kernel k(double a[3:n], const double b[3:n], int n) {
          #pragma acc kernels loop gang vector(64)
          for (i = 3; i < n + 3; i++) { a[i] = 2.0 * b[i] + i; }
        }
        """
        rng = np.random.default_rng(0)
        args = {"a": np.zeros(6), "b": rng.uniform(size=6), "n": 6}
        info = assert_equivalent(src, args)
        assert info.used == "codegen"

    def test_if_masks_guard_division_by_zero(self):
        # Scalar never divides by (i % 3) == 0; the masked vector path must
        # not fault on the inactive lanes either.
        src = """
        kernel k(double a[n], const double b[n], int n) {
          #pragma acc kernels loop gang vector(64)
          for (i = 0; i < n; i++) {
            if (i % 3 != 0) { a[i] = b[i] / (i % 3); }
            else { a[i] = 0.0 - b[i]; }
          }
        }
        """
        rng = np.random.default_rng(1)
        args = {"a": np.zeros(17), "b": rng.uniform(0.5, 2.0, 17), "n": 17}
        info = assert_equivalent(src, args)
        assert info.used == "codegen"

    def test_c_truncation_div_mod_on_negatives(self):
        src = """
        kernel k(int q[n], int r[n], const int p[n], int n) {
          #pragma acc kernels loop gang vector(64)
          for (i = 0; i < n; i++) {
            q[i] = (p[i] * 7 - 11) / 3;
            r[i] = (p[i] * 7 - 11) % 3;
          }
        }
        """
        p = np.array([0, 1, 2, 3, -1, -2], dtype=np.int32)
        args = {
            "q": np.zeros(6, dtype=np.int32),
            "r": np.zeros(6, dtype=np.int32),
            "p": p,
            "n": 6,
        }
        info = assert_equivalent(src, args)
        assert info.used == "codegen"

    def test_lane_varying_sequential_loop(self):
        # CSR-style row walk: each lane's inner trip count differs.  The
        # engine iterates ordinally (lane-local offsets), which must be
        # invisible in both values and stats.
        src = """
        kernel k(double q[m], const double w[nnz], const int s[m1],
                 int m, int m1, int nnz) {
          #pragma acc kernels loop gang vector(64)
          for (i = 0; i < m; i++) {
            double acc = 0.0;
            int lo = s[i];
            int hi = s[i + 1];
            #pragma acc loop seq
            for (k = lo; k < hi; k++) { acc = acc + w[k]; }
            q[i] = acc;
          }
        }
        """
        rng = np.random.default_rng(2)
        lens = rng.integers(0, 7, size=8)
        s = np.concatenate([[0], np.cumsum(lens)]).astype(np.int32)
        nnz = int(s[-1])
        args = {
            "q": np.zeros(8),
            "w": rng.uniform(size=nnz),
            "s": s,
            "m": 8,
            "m1": 9,
            "nnz": nnz,
        }
        info = assert_equivalent(src, args)
        assert info.used == "codegen"

    def test_downward_loop_and_le_bounds(self):
        src = """
        kernel k(double a[n], const double b[n], int n) {
          #pragma acc kernels loop gang vector(64)
          for (i = n - 1; i >= 0; i--) { a[i] = b[i] * i; }
        }
        """
        rng = np.random.default_rng(3)
        args = {"a": np.zeros(9), "b": rng.uniform(size=9), "n": 9}
        info = assert_equivalent(src, args)
        assert info.used == "codegen"

    def test_element_counts_are_analytic(self):
        src = """
        kernel k(double a[n], const double b[n], int n) {
          #pragma acc kernels loop gang vector(64)
          for (i = 0; i < n; i++) { a[i] = b[i] + 1.0; }
        }
        """
        args = {"a": np.zeros(12), "b": np.ones(12), "n": 12}
        _, _, _, _, info = both(src, args)
        assert info.used == "codegen"
        assert info.elements == 12
        assert sum(info.region_elements.values()) == 12


class TestSessionWiring:
    SRC = """
    kernel k(double a[n], const double b[n], int n) {
      #pragma acc kernels loop gang vector(64)
      for (i = 0; i < n; i++) { a[i] = b[i] * 3.0; }
    }
    """

    def _args(self):
        return {"a": np.zeros(5), "b": np.arange(5, dtype=np.float64), "n": 5}

    def test_session_executor_knob(self):
        session = CompilerSession(executor="scalar")
        _, _, info = session.execute(lower(self.SRC), self._args())
        assert (info.requested, info.used) == ("scalar", "scalar")
        _, _, info = session.execute(
            lower(self.SRC), self._args(), executor="codegen"
        )
        assert info.used == "codegen"

    def test_session_stats_execution_section(self):
        session = CompilerSession()
        session.execute(lower(self.SRC), self._args())
        session.execute(lower(self.SRC), self._args(), executor="scalar")
        execution = session.stats_dict()["execution"]
        assert execution["executions"] == 2
        assert execution["codegen"] == 1
        # An *explicitly requested* scalar run is not a fallback: only
        # codegen/auto requests that came back scalar count as fallbacks.
        assert execution["scalar_fallbacks"] == 0
        assert execution["scalar_requested"] == 1
        kernels = execution["kernels"]
        assert [k["kernel"] for k in kernels] == ["k", "k"]
        assert kernels[0]["requested"] == "auto"
        assert kernels[0]["used"] == "codegen"
        assert kernels[0]["elements"] == 5
        assert kernels[1]["requested"] == "scalar"

    def test_execute_program_shim(self):
        """``repro.run`` replaces the removed ``execute_program``."""
        arrays, stats, info = repro.run(self.SRC, self._args())
        np.testing.assert_array_equal(arrays["a"], [0.0, 3.0, 6.0, 9.0, 12.0])
        assert info.used == "codegen"
        assert stats.stores == 5
