"""Tests for vector-load fusion and the CUDA-like renderer."""

from repro.codegen import CodegenOptions, Op, generate_kernel, render_cuda
from repro.gpu import estimate_time, ptxas_info
from repro.ir import build_module
from repro.lang import parse_program

STENCIL_SRC = """
kernel k(double a[n], const double b[n], int n) {
  #pragma acc kernels loop gang vector(64)
  for (i = 1; i < n - 1; i++) {
    a[i] = b[i] + b[i+1] + b[i-1];
  }
}
"""


def lower(src):
    return build_module(parse_program(src)).functions[0]


class TestVectorLoads:
    def _loads(self, src, vectorize):
        fn = lower(src)
        kernel = generate_kernel(
            fn.regions()[0], fn.symtab, CodegenOptions(vectorize_loads=vectorize)
        )
        return kernel, [i for i in kernel.instrs if i.op is Op.LD]

    def test_adjacent_pair_fused(self):
        kernel, loads = self._loads(STENCIL_SRC, True)
        widths = sorted(l.width_bits for l in loads)
        assert widths == [64, 128]  # one scalar + one fused pair

    def test_fused_load_has_two_destinations(self):
        _, loads = self._loads(STENCIL_SRC, True)
        fused = next(l for l in loads if l.width_bits == 128)
        assert fused.dst is not None and fused.dst2 is not None
        assert fused.dst is not fused.dst2

    def test_disabled_by_default(self):
        _, loads = self._loads(STENCIL_SRC, False)
        assert all(l.width_bits == 64 for l in loads)
        assert len(loads) == 3

    def test_no_fusion_across_arrays(self):
        src = """
        kernel k(double a[n], const double b[n], const double c[n], int n) {
          #pragma acc kernels loop gang vector(64)
          for (i = 0; i < n - 1; i++) {
            a[i] = b[i] + c[i+1];
          }
        }
        """
        _, loads = self._loads(src, True)
        assert all(l.width_bits == 64 for l in loads)

    def test_no_fusion_for_gap_two(self):
        src = """
        kernel k(double a[n], const double b[n], int n) {
          #pragma acc kernels loop gang vector(64)
          for (i = 0; i < n - 2; i++) {
            a[i] = b[i] + b[i+2];
          }
        }
        """
        _, loads = self._loads(src, True)
        assert all(l.width_bits == 64 for l in loads)

    def test_multidim_fusion_requires_outer_dims_equal(self):
        src = """
        kernel k(double a[n][n], const double b[n][n], int n) {
          #pragma acc kernels loop gang vector(64)
          for (i = 1; i < n - 1; i++) {
            a[i][2] = b[i][2] + b[i][3] + b[i-1][3];
          }
        }
        """
        _, loads = self._loads(src, True)
        fused = [l for l in loads if l.width_bits == 128]
        assert len(fused) == 1  # b[i][2]+b[i][3]; b[i-1][3] differs in dim 0

    def test_fusion_reduces_issue_and_latency(self):
        fn = lower(STENCIL_SRC)
        k_vec = generate_kernel(
            fn.regions()[0], fn.symtab, CodegenOptions(vectorize_loads=True)
        )
        fn2 = lower(STENCIL_SRC)
        k_std = generate_kernel(
            fn2.regions()[0], fn2.symtab, CodegenOptions(vectorize_loads=False)
        )
        env = {"n": 1 << 20}
        t_vec = estimate_time(k_vec, ptxas_info(k_vec), env)
        t_std = estimate_time(k_std, ptxas_info(k_std), env)
        assert t_vec.profile.mem_latency < t_std.profile.mem_latency
        assert t_vec.time_ms <= t_std.time_ms


class TestCudaRenderer:
    def test_global_signature(self):
        fn = lower(STENCIL_SRC)
        text = render_cuda(fn.regions()[0], fn.symtab, name="stencil")
        assert text.startswith("__global__ void stencil(")
        assert "const double* __restrict__ b" in text

    def test_thread_index_mapping(self):
        fn = lower(STENCIL_SRC)
        text = render_cuda(fn.regions()[0], fn.symtab)
        assert "blockIdx.x * blockDim.x + threadIdx.x" in text
        assert "if (i <" in text  # bounds guard

    def test_seq_loop_rendered_as_for(self):
        src = """
        kernel k(double a[n][m], int n, int m) {
          #pragma acc kernels loop gang vector(64)
          for (i = 0; i < n; i++) {
            #pragma acc loop seq
            for (j = 0; j < m; j++) { a[i][j] = 0.0; }
          }
        }
        """
        fn = lower(src)
        text = render_cuda(fn.regions()[0], fn.symtab)
        assert "for (int j = 0; j < m; j++)" in text

    def test_clause_comments(self):
        src = """
        kernel k(const double u[1:n], double v[1:n], int n) {
          #pragma acc kernels loop gang vector(64) small(u, v) dim((1:n)(u, v))
          for (i = 1; i < n; i++) { v[i] = u[i]; }
        }
        """
        fn = lower(src)
        text = render_cuda(fn.regions()[0], fn.symtab)
        assert "// dim: shared offset computation" in text
        assert "// small: 32-bit offsets" in text
