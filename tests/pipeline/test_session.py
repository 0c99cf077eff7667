"""CompilerSession behavior, and the session methods and facade calls that
replaced the removed free functions (``compile_source``,
``compile_function``, ``compile_guarded``, ``time_program``,
``optimize_region``; see the old→new table in ``docs/pipeline.md``) —
including the README's minimal API example, executed here verbatim from
the README text."""

import inspect
import pathlib
import re

import pytest

import repro
from repro.compiler import (
    BASE,
    SMALL_DIM_SAFARA,
    CompiledProgram,
    CompilerConfig,
    CompilerSession,
    ProgramTiming,
    default_session,
)
from repro.ir import build_module
from repro.lang import parse_program

README = pathlib.Path(__file__).resolve().parents[2] / "README.md"

SRC = """
kernel chain(const double x[1:nz][1:ny][1:nx], double y[1:nz][1:ny][1:nx],
             int nx, int ny, int nz) {
  #pragma acc kernels loop gang vector(2) \\
      dim((1:nz, 1:ny, 1:nx)(x, y)) small(x, y)
  for (j = 1; j < ny; j++) {
    #pragma acc loop gang vector(64)
    for (i = 1; i < nx; i++) {
      #pragma acc loop seq
      for (k = 2; k < nz; k++) {
        y[k][j][i] = x[k][j][i] + x[k-1][j][i];
      }
    }
  }
}
"""


class TestReadmeExample:
    def test_minimal_api_example_runs_unmodified(self, capsys):
        text = README.read_text()
        m = re.search(r"Minimal API example.*?```python\n(.*?)```", text, re.S)
        assert m, "README minimal API example not found"
        exec(compile(m.group(1), str(README), "exec"), {})
        out = capsys.readouterr().out
        assert "OpenUH(base)" in out and "ms" in out


class TestShimCompatibility:
    """Each removed free function's call shape works unchanged on its
    replacement: a :class:`CompilerSession` method or the facade."""

    def test_compile_source_returns_compiled_program(self):
        program = CompilerSession().compile_source(SRC, BASE)
        assert isinstance(program, CompiledProgram)
        assert program.config is BASE
        assert program.kernels and program.kernels[0].name == "chain_k1"

    def test_compile_source_config_stays_positional(self):
        # the README example passes config positionally; that must not break
        program = CompilerSession().compile_source(SRC, SMALL_DIM_SAFARA)
        assert program.config is SMALL_DIM_SAFARA
        assert repro.compile(SRC, SMALL_DIM_SAFARA).config is SMALL_DIM_SAFARA

    def test_optional_params_are_keyword_only(self):
        for fn, kwonly in [
            (CompilerSession.compile_source, {"kernel_name", "filename"}),
            (repro.compile, {"kernel_name", "filename"}),
            (CompilerSession.time_program, {"launches"}),
            (CompilerSession.compile_guarded, {"options", "arch", "name"}),
        ]:
            sig = inspect.signature(fn)
            actual = {
                n
                for n, p in sig.parameters.items()
                if p.kind is inspect.Parameter.KEYWORD_ONLY
            }
            assert kwonly <= actual, fn.__name__

    def test_compile_function_matches_compile_source(self):
        session = CompilerSession()
        fn = build_module(parse_program(SRC)).functions[0]
        via_fn = session.compile_function(fn, SMALL_DIM_SAFARA)
        via_src = session.compile_source(SRC, SMALL_DIM_SAFARA)
        assert [k.registers for k in via_fn.kernels] == [
            k.registers for k in via_src.kernels
        ]

    def test_time_program_shim(self):
        session = CompilerSession()
        program = session.compile_source(SRC, BASE)
        timing = session.time_program(
            program, {"nx": 64, "ny": 32, "nz": 16}, launches=3
        )
        assert isinstance(timing, ProgramTiming)
        assert timing.total_ms > 0

    def test_compile_guarded_shim(self):
        fn = build_module(parse_program(SRC)).functions[0]
        guarded = CompilerSession().compile_guarded(
            fn.regions()[0], fn.symtab, name="g"
        )
        kernel, info, verdict = guarded.select({"nx": 64, "ny": 32, "nz": 16})
        assert verdict.ok
        assert kernel is guarded.optimized

    def test_optimize_region_shim(self):
        fn = build_module(parse_program(SRC)).functions[0]
        session = CompilerSession()
        report, feedback = session.optimize_region(fn.regions()[0], fn.symtab)
        assert feedback.compilations >= 1
        assert feedback.history
        assert session.metrics.get("session.feedback_optimizations").value == 1

    def test_shims_share_the_default_session_cache(self):
        session = default_session()
        src = SRC.replace("chain", "chain_shared")
        baseline = session.cache.misses
        repro.compile(src, BASE)
        repro.compile(src, BASE)
        assert session.cache.misses == baseline + 1

    def test_repro_reexports_session_api(self):
        assert repro.CompilerSession is CompilerSession
        assert isinstance(repro.default_session(), CompilerSession)


class TestConfigDerive:
    def test_derive_overrides_fields(self):
        capped = SMALL_DIM_SAFARA.derive(name="cap32", register_limit=32)
        assert capped.name == "cap32" and capped.register_limit == 32
        assert capped.safara and capped.honor_small and capped.honor_dim

    def test_derive_leaves_original_untouched(self):
        SMALL_DIM_SAFARA.derive(register_limit=32)
        assert SMALL_DIM_SAFARA.register_limit is None

    def test_config_is_frozen(self):
        with pytest.raises(AttributeError):
            BASE.register_limit = 32  # type: ignore[misc]

    def test_derive_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="no_such_field"):
            BASE.derive(no_such_field=1)

    def test_derive_unknown_field_error_is_config_error(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="no_such_field"):
            BASE.derive(no_such_field=1)

    def test_with_arch_is_derive(self):
        from repro.gpu.arch import FERMI_LIKE

        assert BASE.with_arch(FERMI_LIKE).arch is FERMI_LIKE


class TestSessionStats:
    def test_stats_dict_shape(self):
        session = CompilerSession()
        session.compile_source(SRC, SMALL_DIM_SAFARA)
        session.time_program(
            session.compile_source(SRC, SMALL_DIM_SAFARA),
            {"nx": 64, "ny": 32, "nz": 16},
        )
        d = session.stats_dict()
        assert d["compilations"] == 1
        assert d["timings"] == 1
        assert d["cache"]["hits"] == 1 and d["cache"]["misses"] == 1
        assert set(d["pass_totals"]) == {
            "autopar", "licm", "unroll", "esat", "carr-kennedy", "safara",
        }
        trace = d["traces"][0]
        assert trace["config"] == SMALL_DIM_SAFARA.name
        passes = trace["regions"][0]["passes"]
        by_name = {p["pass"]: p for p in passes}
        assert by_name["safara"]["ran"] is True
        assert by_name["safara"]["backend_compilations"] >= 1
        assert by_name["unroll"]["ran"] is False

    def test_pass_totals_count_past_the_trace_bound(self):
        session = CompilerSession()
        session.stats.max_traces = 2
        for step in range(2, 8):  # six distinct programs
            session.compile_source(SRC.replace("k = 2", f"k = {step}"), SMALL_DIM_SAFARA)
        assert session.stats.compilations == 6 and len(session.stats.traces) == 2
        totals = session.stats_dict()["pass_totals"]
        metrics = session.metrics.as_dict()
        assert totals["licm"]["calls"] == 6
        for name, agg in totals.items():
            assert agg["calls"] == metrics.get(f"pipeline.pass.{name}.runs", {}).get("value", 0)
            assert agg["skipped"] == metrics.get(f"pipeline.pass.{name}.skips", {}).get("value", 0)

    def test_pass_totals_empty_without_compiles(self):
        session = CompilerSession()
        assert session.stats_dict()["pass_totals"] == {}
        session.compile_source(SRC, BASE)
        assert session.stats_dict()["pass_totals"]
        session.reset()
        assert session.stats_dict()["pass_totals"] == {}

    def test_sessions_are_isolated(self):
        a, b = CompilerSession(), CompilerSession()
        a.compile_source(SRC, BASE)
        assert b.stats.compilations == 0 and len(b.cache) == 0
