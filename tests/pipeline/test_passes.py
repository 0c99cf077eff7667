"""Pass/PassManager: registration, ordering, gating, instrumentation —
and the CLI's ``--stats`` JSON emission."""

import json

import pytest

from repro.bench import SPEC, load_all
from repro.cli import main
from repro.compiler import (
    BASE,
    CARR_KENNEDY,
    SAFARA_ONLY,
    SMALL_DIM_SAFARA,
    UNROLL_SAFARA,
    CompileJob,
    CompilerSession,
)
from repro.pipeline.cache import cache_key
from repro.pipeline import (
    Pass,
    PassManager,
    default_passes,
    ir_size,
)

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


class TestPassManager:
    def test_default_order(self):
        assert PassManager().pass_names() == [
            "autopar", "licm", "unroll", "esat", "carr-kennedy", "safara",
        ]

    def test_register_appends_by_default(self):
        pm = PassManager()

        class Extra(Pass):
            name = "extra"

            def run(self, ctx):
                return None

        pm.register(Extra())
        assert pm.pass_names()[-1] == "extra"

    def test_register_before_and_after(self):
        pm = PassManager()

        class A(Pass):
            name = "a"

            def run(self, ctx):
                return None

        class B(Pass):
            name = "b"

            def run(self, ctx):
                return None

        pm.register(A(), before="licm")
        pm.register(B(), after="licm")
        names = pm.pass_names()
        assert names.index("a") == names.index("licm") - 1
        assert names.index("b") == names.index("licm") + 1

    def test_register_unknown_anchor_raises(self):
        with pytest.raises(KeyError):
            PassManager().register(Pass(), before="nope")

    def test_register_rejects_both_anchors(self):
        with pytest.raises(ValueError):
            PassManager().register(Pass(), before="licm", after="licm")


class TestInstrumentation:
    def _passes(self, config):
        session = CompilerSession()
        session.compile_source(SRC, config)
        trace = session.stats.traces[0]
        return {p.name: p for p in trace.regions[0].passes}

    def test_disabled_passes_are_recorded_as_skipped(self):
        by_name = self._passes(BASE)
        assert not by_name["safara"].ran
        assert not by_name["carr-kennedy"].ran
        assert not by_name["unroll"].ran
        assert by_name["licm"].ran and by_name["autopar"].ran

    def test_safara_register_delta_from_feedback_history(self):
        by_name = self._passes(SAFARA_ONLY)
        safara = by_name["safara"]
        assert safara.ran
        assert safara.registers_before is not None
        assert safara.registers_after is not None
        assert safara.backend_compilations >= 1
        # SAFARA introduces rotating temporaries → register use climbs
        assert safara.register_delta >= 0

    def test_ir_size_delta_positive_for_replacement(self):
        by_name = self._passes(CARR_KENNEDY)
        ck = by_name["carr-kennedy"]
        assert ck.ran
        assert ck.ir_before > 0
        # scalar replacement inserts temp decls/moves
        assert ck.ir_after >= ck.ir_before

    def test_unroll_runs_under_unroll_config(self):
        by_name = self._passes(UNROLL_SAFARA)
        assert by_name["unroll"].ran
        assert by_name["unroll"].ir_after > by_name["unroll"].ir_before

    def test_wall_time_recorded(self):
        by_name = self._passes(SMALL_DIM_SAFARA)
        assert all(p.wall_ms >= 0 for p in by_name.values())
        assert sum(p.wall_ms for p in by_name.values()) > 0

    def test_ir_size_counts_statements(self):
        from repro.ir import build_module
        from repro.lang import parse_program

        fn = build_module(parse_program(SRC)).functions[0]
        assert ir_size(fn.regions()[0]) > 0


class TestCustomPasses:
    def test_custom_pass_report_reaches_trace_and_reports(self):
        calls = []

        class Counter(Pass):
            name = "counter"
            report_key = None

            def run(self, ctx):
                calls.append(ctx.kernel_name)
                return None

        session = CompilerSession(passes=default_passes())
        session.pipeline.register(Counter(), after="licm")
        session.compile_source(SRC, BASE)
        assert calls == ["chain_k1"]
        trace = session.stats.traces[0].regions[0]
        assert "counter" in [p.name for p in trace.passes]

    def test_custom_pipeline_keeps_out_of_a_shared_disk_cache(self, tmp_path):
        class Noop(Pass):
            name = "noop"

            def run(self, ctx):
                return None

        load_all()
        job = CompileJob(SPEC.get("355.seismic").source, SMALL_DIM_SAFARA)
        custom = CompilerSession(passes=[Noop()], cache_dir=str(tmp_path))
        custom_program, _ = custom.compile_job(job)
        assert all(k.safara is None for k in custom_program.kernels)

        stock = CompilerSession(cache_dir=str(tmp_path))
        program, tier = stock.compile_job(job)
        assert tier is None  # compiled afresh, not the custom pipeline's program
        fresh, _ = CompilerSession().compile_job(job)
        assert all(k.safara is not None for k in program.kernels)
        assert [k.backend_compilations for k in program.kernels] == [
            k.backend_compilations for k in fresh.kernels
        ]
        # Each pipeline still hits its own entries across sessions.
        again = CompilerSession(passes=[Noop()], cache_dir=str(tmp_path))
        assert again.compile_job(job)[1] == "disk"
        assert CompilerSession(cache_dir=str(tmp_path)).compile_job(job)[1] == "disk"

    def test_stock_pipeline_keeps_the_plain_key(self):
        job = CompileJob(SRC, BASE)
        plain = cache_key(SRC, BASE)
        assert CompilerSession().job_key(job) == plain
        session = CompilerSession(passes=default_passes())
        assert session.pipeline.key_token is None
        assert session.job_key(job) == plain

        class Counter(Pass):
            name = "counter"

        session.pipeline.register(Counter(), after="licm")
        assert session.pipeline.key_token is not None
        assert session.job_key(job) != plain

    def test_session_with_reduced_pipeline(self):
        # a session restricted to the baseline passes still compiles
        session = CompilerSession(passes=default_passes()[:2])
        program = session.compile_source(SRC, SMALL_DIM_SAFARA)
        assert program.kernels[0].safara is None  # safara pass absent


class TestCliStats:
    @pytest.fixture
    def demo_file(self, tmp_path):
        path = tmp_path / "demo.acc"
        path.write_text(SRC)
        return str(path)

    def test_stats_flag_emits_json_trace(self, demo_file, capsys):
        assert main(["compile", demo_file, "--stats"]) == 0
        out = capsys.readouterr().out
        payload = out[out.index("{"):]
        stats = json.loads(payload)
        assert stats["compilations"] == 2  # two default configs
        assert stats["cache"]["misses"] == 2
        names = [p["pass"] for p in stats["traces"][0]["regions"][0]["passes"]]
        assert names == ["autopar", "licm", "unroll", "esat", "carr-kennedy", "safara"]
        for p in stats["traces"][0]["regions"][0]["passes"]:
            assert {"wall_ms", "ir_delta", "register_delta"} <= set(p)

    def test_experiments_prints_cache_totals(self, capsys):
        assert main(["experiments", "table1"]) == 0
        out = capsys.readouterr().out
        assert "compile cache:" in out
        assert "hits" in out and "misses" in out
