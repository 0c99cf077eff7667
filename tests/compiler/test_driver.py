"""Unit tests for the compiler driver and configurations."""

import pytest

from repro.compiler import (
    ALL_CONFIGS,
    BASE,
    CARR_KENNEDY,
    CompilerConfig,
    PGI,
    SAFARA_ONLY,
    SMALL,
    SMALL_DIM,
    SMALL_DIM_SAFARA,
    default_session,
)
from repro.gpu.arch import FERMI_LIKE

SESSION = default_session()

SRC = """
kernel k(const double u[1:nz][1:ny][1:nx], double out[1:nz][1:ny][1:nx],
         int nx, int ny, int nz) {
  #pragma acc kernels loop gang vector(2) small(u, out) dim((1:nz,1:ny,1:nx)(u, out))
  for (j = 1; j < ny; j++) {
    #pragma acc loop gang vector(64)
    for (i = 1; i < nx; i++) {
      #pragma acc loop seq
      for (k = 1; k < nz; k++) {
        out[k][j][i] = u[k][j][i] + u[k-1][j][i];
      }
    }
  }

  #pragma acc kernels loop gang vector(64)
  for (i = 1; i < nx; i++) {
    out[1][1][i] = u[1][1][i];
  }
}
"""

ENV = {"nx": 128, "ny": 64, "nz": 32}


class TestCompile:
    def test_one_compiled_kernel_per_region(self):
        prog = SESSION.compile_source(SRC, BASE)
        assert len(prog.kernels) == 2
        assert prog.kernels[0].name.endswith("_k1")
        assert prog.kernels[1].name.endswith("_k2")

    def test_kernel_lookup(self):
        prog = SESSION.compile_source(SRC, BASE)
        name = prog.kernels[0].name
        assert prog.kernel(name) is prog.kernels[0]
        with pytest.raises(KeyError):
            prog.kernel("nope")

    def test_base_has_no_sr_reports(self):
        prog = SESSION.compile_source(SRC, BASE)
        assert prog.kernels[0].safara is None
        assert prog.kernels[0].carr_kennedy is None

    def test_licm_runs_in_every_config(self):
        prog = SESSION.compile_source(SRC, BASE)
        assert prog.kernels[0].licm is not None

    def test_safara_config_records_report(self):
        prog = SESSION.compile_source(SRC, SAFARA_ONLY)
        assert prog.kernels[0].safara is not None
        assert prog.kernels[0].backend_compilations >= 2

    def test_carr_kennedy_config(self):
        prog = SESSION.compile_source(SRC, CARR_KENNEDY)
        assert prog.kernels[0].carr_kennedy is not None

    def test_clauses_reduce_registers(self):
        base = SESSION.compile_source(SRC, BASE)
        dim = SESSION.compile_source(SRC, SMALL_DIM)
        assert dim.kernels[0].registers < base.kernels[0].registers

    def test_fresh_parse_isolation(self):
        """Two compilations of the same source must not interfere."""
        a = SESSION.compile_source(SRC, SMALL_DIM_SAFARA)
        b = SESSION.compile_source(SRC, SMALL_DIM_SAFARA)
        assert [k.registers for k in a.kernels] == [k.registers for k in b.kernels]

    def test_arch_override(self):
        cfg = SMALL_DIM_SAFARA.with_arch(FERMI_LIKE)
        prog = SESSION.compile_source(SRC, cfg)
        assert all(
            k.registers <= FERMI_LIKE.max_registers_per_thread for k in prog.kernels
        )


class TestTiming:
    def test_total_is_sum_of_kernels(self):
        prog = SESSION.compile_source(SRC, BASE)
        t = SESSION.time_program(prog, ENV)
        assert t.total_ms == pytest.approx(sum(k.time_ms for k in t.kernels))

    def test_launch_list_weights_kernels(self):
        prog = SESSION.compile_source(SRC, BASE)
        t1 = SESSION.time_program(prog, ENV, launches=[1, 1])
        t2 = SESSION.time_program(prog, ENV, launches=[10, 1])
        assert t2.kernels[0].time_ms == pytest.approx(10 * t1.kernels[0].time_ms)
        assert t2.kernels[1].time_ms == pytest.approx(t1.kernels[1].time_ms)

    def test_launch_dict_by_name(self):
        prog = SESSION.compile_source(SRC, BASE)
        name = prog.kernels[0].name
        t = SESSION.time_program(prog, ENV, launches={name: 5})
        t1 = SESSION.time_program(prog, ENV, launches=1)
        assert t.kernels[0].time_ms == pytest.approx(5 * t1.kernels[0].time_ms)

    def test_pgi_issue_efficiency_applied(self):
        base_prog = SESSION.compile_source(SRC, BASE)
        pgi_prog = SESSION.compile_source(SRC, PGI)
        tb = SESSION.time_program(base_prog, ENV)
        tp = SESSION.time_program(pgi_prog, ENV)
        # PGI's compute bound is scaled by its efficiency factor.
        assert (
            tp.kernels[1].compute_cycles
            < tb.kernels[1].compute_cycles
        )


class TestConfigs:
    def test_all_configs_registry(self):
        assert "PGI" in ALL_CONFIGS
        assert ALL_CONFIGS["OpenUH(base)"] is BASE

    def test_codegen_options_respect_flags(self):
        opts = SMALL.codegen_options()
        assert opts.honor_small and not opts.honor_dim
        opts = SMALL_DIM.codegen_options()
        assert opts.honor_small and opts.honor_dim

    def test_pgi_is_intra_only(self):
        assert PGI.ck_intra_only
        assert PGI.issue_efficiency < 1.0

    def test_configs_are_frozen(self):
        with pytest.raises(Exception):
            BASE.safara = True
