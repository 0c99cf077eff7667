"""Tests for the runtime clause-verification scheme (paper Section IV)."""

import pytest

from repro.compiler import default_session, verify_clauses
from repro.ir import build_module
from repro.lang import parse_program

SESSION = default_session()

SRC = """
kernel k(const double u[1:nz][1:ny][1:nx], const double v[1:mz][1:my][1:mx],
         double out[1:nz][1:ny][1:nx],
         int nx, int ny, int nz, int mx, int my, int mz) {
  #pragma acc kernels loop gang vector(64) \\
      dim((1:nz, 1:ny, 1:nx)(u, v, out)) small(u, v, out)
  for (i = 1; i < nx; i++) {
    out[1][1][i] = u[1][1][i] + v[1][1][i];
  }
}
"""


def region_of(src=SRC):
    fn = build_module(parse_program(src)).functions[0]
    return fn.regions()[0], fn.symtab


GOOD_ENV = {"nx": 64, "ny": 32, "nz": 16, "mx": 64, "my": 32, "mz": 16}
BAD_DIM_ENV = {"nx": 64, "ny": 32, "nz": 16, "mx": 64, "my": 32, "mz": 8}
#: u alone is 8 bytes * 2^30 = 8 GB: small lie.
BAD_SMALL_ENV = {
    "nx": 1 << 10, "ny": 1 << 10, "nz": 1 << 10,
    "mx": 1 << 10, "my": 1 << 10, "mz": 1 << 10,
}


class TestVerifyClauses:
    def test_truthful_clauses_verify(self):
        region, symtab = region_of()
        assert verify_clauses(region, symtab, GOOD_ENV).ok

    def test_dim_lie_detected(self):
        region, symtab = region_of()
        verdict = verify_clauses(region, symtab, BAD_DIM_ENV)
        assert not verdict.ok
        assert any(v.clause == "dim" for v in verdict.violations)
        assert "v" in str(verdict.violations[0])

    def test_small_lie_detected(self):
        region, symtab = region_of()
        verdict = verify_clauses(region, symtab, BAD_SMALL_ENV)
        assert any(v.clause == "small" for v in verdict.violations)

    def test_declared_clause_bounds_checked(self):
        src = SRC.replace("dim((1:nz, 1:ny, 1:nx)", "dim((0:nz, 1:ny, 1:nx)")
        region, symtab = region_of(src)
        verdict = verify_clauses(region, symtab, GOOD_ENV)
        assert any("declares bounds" in v.message for v in verdict.violations)

    def test_missing_runtime_size_raises(self):
        region, symtab = region_of()
        with pytest.raises(KeyError, match="missing"):
            verify_clauses(region, symtab, {"nx": 4})


class TestGuardedCompilation:
    def test_two_versions_generated(self):
        region, symtab = region_of()
        guarded = SESSION.compile_guarded(region, symtab, name="g")
        assert guarded.optimized.name == "g_opt"
        assert guarded.fallback.name == "g_fallback"
        # The optimized version uses strictly fewer registers.
        assert guarded.optimized_info.registers < guarded.fallback_info.registers

    def test_select_optimized_when_truthful(self):
        region, symtab = region_of()
        guarded = SESSION.compile_guarded(region, symtab)
        kernel, info, verdict = guarded.select(GOOD_ENV)
        assert verdict.ok
        assert kernel is guarded.optimized

    def test_select_fallback_when_lying(self):
        region, symtab = region_of()
        guarded = SESSION.compile_guarded(region, symtab)
        kernel, info, verdict = guarded.select(BAD_DIM_ENV)
        assert not verdict.ok
        assert kernel is guarded.fallback
        assert info is guarded.fallback_info

    def test_fallback_ignores_clauses_entirely(self):
        from repro.codegen import Op

        region, symtab = region_of()
        guarded = SESSION.compile_guarded(region, symtab)
        # Fallback: per-array dope sets (3 arrays x 5) vs shared set (5).
        assert guarded.fallback.count(Op.LD_DOPE) == 15
        assert guarded.optimized.count(Op.LD_DOPE) == 5
