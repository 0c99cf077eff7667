"""Tests for kernels-construct auto-parallelisation."""

import numpy as np

from repro.analysis import analyze_loops
from repro.compiler import BASE, default_session
from repro.ir import Loop, build_module
from repro.gpu.interpreter import run_kernel
from repro.lang import parse_program
from repro.transforms import auto_parallelize

SESSION = default_session()

UNDIRECTED_SRC = """
kernel k(double a[n][m], const double b[n][m], int n, int m) {
  #pragma acc kernels
  {
    for (i = 0; i < n; i++) {
      for (j = 0; j < m; j++) {
        a[i][j] = 2.0 * b[i][j];
      }
    }
  }
}
"""


def lower(src):
    return build_module(parse_program(src)).functions[0]


class TestMapping:
    def test_two_level_nest_gets_gang_and_vector(self):
        fn = lower(UNDIRECTED_SRC)
        region = fn.regions()[0]
        report = auto_parallelize(region)
        info = analyze_loops(region)
        outer, inner = info.loops
        assert outer.is_parallel and outer.directive.gang is True
        assert inner.is_parallel and inner.directive.vector == 128
        assert report.parallelized == 2

    def test_single_loop_gets_gang_vector(self):
        src = """
        kernel k(double a[n], int n) {
          #pragma acc kernels
          {
            for (i = 0; i < n; i++) { a[i] = 1.0; }
          }
        }
        """
        fn = lower(src)
        region = fn.regions()[0]
        auto_parallelize(region)
        (loop,) = analyze_loops(region).loops
        assert loop.directive.gang is True
        assert loop.directive.vector == 128

    def test_recurrence_stays_sequential(self):
        src = """
        kernel k(double a[n][m], int n, int m) {
          #pragma acc kernels
          {
            for (i = 0; i < n; i++) {
              for (j = 1; j < m; j++) {
                a[i][j] = a[i][j-1] * 0.5;
              }
            }
          }
        }
        """
        fn = lower(src)
        region = fn.regions()[0]
        report = auto_parallelize(region)
        info = analyze_loops(region)
        outer, inner = info.loops
        assert outer.is_parallel  # rows are independent
        assert not inner.is_parallel  # j-recurrence
        assert inner in report.kept_sequential

    def test_indirect_store_stays_sequential(self):
        src = """
        kernel k(double a[n], const int idx[n], int n) {
          #pragma acc kernels
          {
            for (i = 0; i < n; i++) {
              a[idx[i]] = 1.0;
            }
          }
        }
        """
        fn = lower(src)
        region = fn.regions()[0]
        report = auto_parallelize(region)
        (loop,) = analyze_loops(region).loops
        assert not loop.is_parallel
        assert loop in report.kept_sequential

    def test_user_directives_respected(self):
        src = """
        kernel k(double a[n][m], int n, int m) {
          #pragma acc kernels
          {
            #pragma acc loop seq
            for (i = 0; i < n; i++) {
              for (j = 0; j < m; j++) {
                a[i][j] = 1.0;
              }
            }
          }
        }
        """
        fn = lower(src)
        region = fn.regions()[0]
        report = auto_parallelize(region)
        info = analyze_loops(region)
        outer, inner = info.loops
        assert not outer.is_parallel  # explicit seq wins
        assert inner.directive is None  # subtree left alone
        assert report.parallelized == 0

    def test_parallel_construct_untouched(self):
        src = UNDIRECTED_SRC.replace("acc kernels", "acc parallel")
        fn = lower(src)
        region = fn.regions()[0]
        report = auto_parallelize(region)
        assert report.parallelized == 0

    def test_third_level_stays_per_thread(self):
        src = """
        kernel k(double a[n][m][8], int n, int m) {
          #pragma acc kernels
          {
            for (i = 0; i < n; i++) {
              for (j = 0; j < m; j++) {
                for (t = 0; t < 8; t++) {
                  a[i][j][t] = 1.0;
                }
              }
            }
          }
        }
        """
        fn = lower(src)
        region = fn.regions()[0]
        auto_parallelize(region)
        info = analyze_loops(region)
        t = info.loops[2]
        assert not t.is_parallel


class TestEndToEnd:
    def test_driver_parallelizes_and_launches_wide(self):
        prog = SESSION.compile_source(UNDIRECTED_SRC, BASE)
        kernel = prog.kernels[0]
        assert kernel.autopar is not None
        assert kernel.autopar.parallelized == 2
        assert kernel.vir.launch.total_threads({"n": 64, "m": 256}) == 64 * 256

    def test_semantics_preserved(self):
        n, m = 6, 10
        b = np.random.default_rng(0).uniform(size=(n, m))
        a1, a2 = np.zeros((n, m)), np.zeros((n, m))

        fn1 = lower(UNDIRECTED_SRC)
        run_kernel(fn1, {"a": a1, "b": b.copy(), "n": n, "m": m})
        fn2 = lower(UNDIRECTED_SRC)
        SESSION.compile_function(fn2, BASE)
        run_kernel(fn2, {"a": a2, "b": b.copy(), "n": n, "m": m})
        np.testing.assert_array_equal(a1, a2)
