"""A region's final lowering reuses SAFARA's last backend compile: what
ships must be exactly what a fresh code generation of the final region
produces, and a pass after SAFARA must get a fresh lowering."""

import pytest

import repro.compiler.session as session_module
from repro.codegen.kernelgen import generate_kernel
from repro.compiler import SMALL_DIM_SAFARA, CompilerSession
from repro.feedback.driver import FeedbackCompiler
from repro.gpu.arch import get_arch
from repro.gpu.registers import ptxas_info
from repro.obs.tracer import Tracer
from repro.pipeline import Pass

from .test_parse_once import bench_jobs

SRC = """
kernel k(double a[n], const double b[n], int n) {
  #pragma acc kernels loop gang vector(64)
  for (i = 1; i < n - 1; i++) { a[i] = b[i - 1] + b[i] + b[i + 1]; }
}
"""


class Noop(Pass):
    name = "noop"

    def run(self, ctx):
        return None


@pytest.fixture
def codegen_calls(monkeypatch):
    """Kernel names of the final lowerings that ran the code generator."""
    calls = []
    real = session_module.generate_kernel

    def counting(*args, **kwargs):
        calls.append(kwargs["name"])
        return real(*args, **kwargs)

    monkeypatch.setattr(session_module, "generate_kernel", counting)
    return calls


def codegen_spans(session, source, config):
    tracer = Tracer()
    with tracer.activate():
        session.compile_source(source, config)
    return [s.args for s in tracer.spans if s.name == "codegen"]


class TestShippedLowering:
    def test_every_bench_kernel_equals_a_fresh_lowering_of_its_region(self, codegen_calls):
        session = CompilerSession()
        kernels = reused = 0
        for job in bench_jobs():
            fn = session._parse_job(job)
            program = session.compile_function(fn, job.config)
            options = job.config.codegen_options()
            for region, kernel in zip(fn.regions(), program.kernels):
                vir = generate_kernel(region, fn.symtab, options, name=kernel.name)
                info = ptxas_info(vir, job.config.arch, job.config.register_limit)
                assert kernel.vir.dump() == vir.dump(), kernel.name
                assert kernel.vir.vreg_count == vir.vreg_count, kernel.name
                assert kernel.ptxas == info, kernel.name
                kernels += 1
                reused += kernel.safara is not None
        # Only the lowerings SAFARA did not leave ran the code generator.
        assert len(codegen_calls) == kernels - reused
        assert reused == 98

    def test_reused_lowering_keeps_one_codegen_span_per_region(self):
        (args,) = codegen_spans(CompilerSession(), SRC, SMALL_DIM_SAFARA)
        program = CompilerSession().compile_source(SRC, SMALL_DIM_SAFARA)
        assert args["reused"] is True
        assert args["registers"] == program.kernels[0].ptxas.registers
        assert args["spill_bytes"] == program.kernels[0].ptxas.spill_bytes


class TestFreshLowering:
    def test_pass_after_safara_forces_a_fresh_lowering(self, codegen_calls):
        stock = CompilerSession().compile_source(SRC, SMALL_DIM_SAFARA)
        assert codegen_calls == []
        session = CompilerSession()
        session.pipeline.register(Noop(), after="safara")
        program = session.compile_source(SRC, SMALL_DIM_SAFARA)
        assert codegen_calls == ["k_k1"]
        (kernel,) = program.kernels
        assert kernel.backend_compilations == stock.kernels[0].backend_compilations + 1
        assert kernel.vir.dump() == stock.kernels[0].vir.dump()
        assert kernel.ptxas == stock.kernels[0].ptxas
        session = CompilerSession()
        session.pipeline.register(Noop(), after="safara")
        (args,) = codegen_spans(session, SRC, SMALL_DIM_SAFARA)
        assert args["reused"] is False

    def test_pass_before_safara_keeps_the_reuse(self, codegen_calls):
        session = CompilerSession()
        session.pipeline.register(Noop(), before="safara")
        session.compile_source(SRC, SMALL_DIM_SAFARA)
        assert codegen_calls == []

    def test_lowering_matches_only_the_inputs_it_was_compiled_with(self):
        session = CompilerSession()
        fn = session.function(SRC).clone()
        (region,) = fn.regions()
        config = SMALL_DIM_SAFARA
        options = config.codegen_options()
        feedback = FeedbackCompiler(
            symtab=fn.symtab, options=options, arch=config.arch, name="k_k1"
        )
        assert feedback.last is None
        info = feedback(region)
        last = feedback.last
        assert last.info is info
        assert last.matches(options, config.arch, None, "k_k1")
        assert not last.matches(options, config.arch, None, "k_k2")
        assert not last.matches(options, config.arch, 64, "k_k1")
        assert not last.matches(
            config.derive(honor_small=False).codegen_options(), config.arch, None, "k_k1"
        )
        assert not last.matches(options, get_arch("cdna2"), None, "k_k1")
