"""The stable public facade (`import repro`)."""

import warnings

import repro
from repro.compiler import BASE

SRC = """
kernel axpy(const double x[1:n], double y[1:n], int n) {
  #pragma acc kernels loop gang vector(64)
  for (i = 1; i < n; i++) {
    y[i] = x[i] + y[i];
  }
}
"""


class TestFacadeSurface:
    def test_all_is_the_stable_api(self):
        assert repro.__all__ == [
            "CompilerConfig", "CompilerSession", "compile",
            "get_arch", "get_pass", "list_archs", "list_passes",
            "register_pass", "run", "tune",
        ]
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_arch_facade_resolves_registered_profiles(self):
        from repro.gpu import KEPLER_K20XM

        assert "kepler-k20xm" in repro.list_archs()
        assert repro.get_arch("kepler-k20xm") is KEPLER_K20XM
        assert repro.get_arch("cdna2-mi250").warp_size == 64

    def test_compile_compiles(self):
        program = repro.compile(SRC)
        assert program.kernels[0].registers > 0

    def test_compile_accepts_config_and_env(self):
        program = repro.compile(SRC, BASE, env={"n": 64})
        assert program.config is BASE

    def test_run_executes(self):
        import numpy as np

        x = np.arange(8, dtype=np.float64)
        y = np.ones(8, dtype=np.float64)
        repro.run(SRC, {"x": x, "y": y, "n": 8})
        assert y[1] == 2.0

    def test_second_run_reuses_the_generated_program(self):
        import numpy as np

        source = SRC.replace("axpy", "axpy_rerun")
        metrics = repro.default_session().metrics

        def hits():
            counter = metrics.get("cache.fnobj.hits")
            return 0 if counter is None else counter.value

        args = {"x": np.arange(8.0), "y": np.ones(8), "n": 8}
        repro.run(source, args)
        before = hits()
        _arrays, _stats, info = repro.run(source, args)
        assert info.used == "codegen"
        assert hits() == before + 1

    def test_tune_is_reachable_from_the_facade(self):
        from repro.tune import tune as tune_fn

        assert repro.tune is tune_fn

    def test_facade_itself_never_warns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            repro.compile(SRC)
