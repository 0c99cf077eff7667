"""Tests for the kernel execution profiler (`repro.obs.profiler`)."""

import json

import numpy as np

from repro.compiler.options import BASE, SMALL_DIM_SAFARA
from repro.compiler.session import CompilerSession
from repro.ir import build_module
from repro.lang import parse_program
from repro.obs.profiler import profile_program, profile_source

STENCIL = """
kernel demo(const double u[1:nz][1:ny][1:nx], double out[1:nz][1:ny][1:nx],
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
}
"""

SAXPY = """
kernel k(double a[n], const double b[n], int n) {
  #pragma acc kernels loop gang vector(64)
  for (i = 0; i < n; i++) { a[i] = 2.0 * b[i] + i; }
}
"""


class TestProfileProgram:
    def test_stencil_profile_fields(self):
        profile = profile_source(STENCIL, SMALL_DIM_SAFARA,
                                 session=CompilerSession())
        assert profile.function == "demo"
        assert profile.config == SMALL_DIM_SAFARA.name
        (k,) = profile.kernels
        assert k.kernel == "demo_k1"
        assert k.registers > 0
        assert k.raw_pressure > 0
        assert k.backend_compilations >= 2  # safara iterates the backend
        assert 0.0 < k.occupancy <= 1.0
        assert k.occupancy_limited_by in ("registers", "threads", "blocks", "warps")
        assert k.safara is not None
        assert k.safara["iterations"] >= 1
        assert k.safara["converged_reason"] in (
            "no-candidates", "registers-saturated", "candidates-exhausted"
        )

    def test_traffic_classifies_space_and_pattern(self):
        profile = profile_source(STENCIL, SMALL_DIM_SAFARA,
                                 session=CompilerSession())
        (k,) = profile.kernels
        by_array = {}
        for t in k.traffic:
            by_array.setdefault(t.array, []).append(t)
        # const input goes through the read-only cache under this config;
        # the output array is a plain global store.
        assert all(t.space == "readonly" for t in by_array["u"])
        assert all(t.space == "global" for t in by_array["out"])
        assert sum(t.stores for t in by_array["out"]) == 1
        assert sum(t.loads for t in by_array["u"]) >= 1
        patterns = {t.pattern for t in k.traffic}
        assert patterns <= {"coalesced", "uncoalesced", "uniform", "unknown"}

    def test_loop_decisions_cover_every_loop(self):
        profile = profile_source(STENCIL, SMALL_DIM_SAFARA,
                                 session=CompilerSession())
        (k,) = profile.kernels
        decisions = {l.var: l for l in k.loops}
        assert set(decisions) == {"i", "j", "k"}
        assert decisions["j"].parallel and decisions["j"].mode == "axis"
        assert decisions["i"].parallel and decisions["i"].mode == "axis"
        assert not decisions["k"].parallel and decisions["k"].mode == "seq"

    def test_base_config_has_no_safara_section(self):
        profile = profile_source(STENCIL, BASE, session=CompilerSession())
        (k,) = profile.kernels
        assert k.safara is None

    def test_as_dict_is_json_serialisable(self):
        profile = profile_source(STENCIL, SMALL_DIM_SAFARA,
                                 session=CompilerSession())
        d = json.loads(json.dumps(profile.as_dict()))
        assert d["function"] == "demo"
        assert d["kernels"][0]["traffic"]
        assert d["kernels"][0]["loops"]

    def test_render_mentions_key_sections(self):
        text = profile_source(STENCIL, SMALL_DIM_SAFARA,
                              session=CompilerSession()).render()
        assert "registers" in text
        assert "occupancy" in text
        assert "memory traffic" in text
        assert "vector planner" in text

    def test_profile_program_over_precompiled(self):
        fn = build_module(parse_program(SAXPY)).functions[0]
        program = CompilerSession().compile_function(fn, BASE)
        profile = profile_program(program, fn)
        (k,) = profile.kernels
        assert k.kernel == "k_k1"
        assert {t.array for t in k.traffic} == {"a", "b"}

    def test_execution_section_renders_when_attached(self):
        session = CompilerSession()
        profile = profile_source(SAXPY, BASE, session=session)
        fn = build_module(parse_program(SAXPY)).functions[0]
        _, stats, info = session.execute(
            fn, {"a": np.zeros(8), "b": np.ones(8), "n": 8}
        )
        profile.execution = {
            **info.as_dict(),
            "loads": stats.loads,
            "stores": stats.stores,
            "flops": stats.flops,
            "iterations": stats.iterations,
        }
        text = profile.render()
        assert "execution: executor=codegen" in text
        assert json.dumps(profile.as_dict())
