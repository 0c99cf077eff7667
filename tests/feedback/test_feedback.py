"""Unit tests for the PTXAS feedback loop driver."""

from repro.codegen import CodegenOptions
from repro.compiler import default_session
from repro.feedback import FeedbackCompiler
from repro.gpu.arch import FERMI_LIKE
from repro.ir import build_module
from repro.lang import parse_program

SESSION = default_session()

SRC = """
kernel k(const double u[1:nz][1:ny][1:nx], double out[1:nz][1:ny][1:nx],
         int nx, int ny, int nz) {
  #pragma acc kernels loop gang vector(2)
  for (j = 1; j < ny; j++) {
    #pragma acc loop gang vector(64)
    for (i = 1; i < nx; i++) {
      #pragma acc loop seq
      for (k = 1; k < nz; k++) {
        out[k][j][i] = u[k][j][i] + u[k-1][j][i];
      }
    }
  }
}
"""


def region_of(src=SRC):
    fn = build_module(parse_program(src)).functions[0]
    return fn.regions()[0], fn.symtab


class TestFeedbackCompiler:
    def test_history_accumulates(self):
        region, symtab = region_of()
        fb = FeedbackCompiler(symtab=symtab)
        a = fb(region)
        b = fb(region)
        assert fb.compilations == 2
        assert a.registers == b.registers  # no IR change between calls

    def test_report_has_kernel_name(self):
        region, symtab = region_of()
        fb = FeedbackCompiler(symtab=symtab, name="mykernel")
        info = fb(region)
        assert info.kernel_name == "mykernel"

    def test_options_affect_registers(self):
        region, symtab = region_of()
        fat = FeedbackCompiler(symtab=symtab, options=CodegenOptions(honor_small=False))
        region2, symtab2 = region_of()
        thin = FeedbackCompiler(
            symtab=symtab2, options=CodegenOptions(honor_small=True)
        )
        # No small clause in source, and the arrays are VLAs, so both use
        # 64-bit offsets — equal registers (the clause matters, not the flag).
        assert fat(region).registers == thin(region2).registers

    def test_register_limit_passed_to_allocator(self):
        region, symtab = region_of()
        fb = FeedbackCompiler(symtab=symtab, register_limit=16)
        assert fb(region).registers <= 16


class TestOptimizeRegion:
    def test_returns_report_and_history(self):
        region, symtab = region_of()
        report, fb = SESSION.optimize_region(region, symtab)
        assert report.groups_replaced >= 1
        assert fb.compilations == len(fb.history) >= 2

    def test_respects_arch_limit(self):
        region, symtab = region_of()
        report, _ = SESSION.optimize_region(region, symtab, arch=FERMI_LIKE)
        assert report.register_limit == FERMI_LIKE.max_registers_per_thread
        assert report.final_registers <= FERMI_LIKE.max_registers_per_thread

    def test_fermi_disables_readonly_cache_pricing(self):
        """On a pre-Kepler arch the read-only class collapses into global;
        the run must still converge and replace the chain."""
        region, symtab = region_of()
        report, _ = SESSION.optimize_region(region, symtab, arch=FERMI_LIKE)
        assert report.groups_replaced >= 1
