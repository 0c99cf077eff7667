"""Structural tests over the benchmark suites."""

import pytest

from repro.bench import load_all
from repro.bench.paper_data import TABLE1_SEISMIC, TABLE2_SP
from repro.compiler import BASE, SMALL, SMALL_DIM, default_session
from repro.ir import build_module
from repro.lang import parse_program

SESSION = default_session()

SPEC_SUITE, NAS_SUITE = load_all()


class TestRegistries:
    def test_spec_has_ten_benchmarks(self):
        assert len(SPEC_SUITE) == 10

    def test_nas_has_six_benchmarks(self):
        assert NAS_SUITE.names() == ["BT", "CG", "EP", "LU", "MG", "SP"]

    def test_paper_benchmark_names_present(self):
        names = set(SPEC_SUITE.names())
        assert {"303.ostencil", "304.olbm", "314.omriq", "355.seismic", "356.sp"} <= names

    def test_duplicate_registration_rejected(self):
        spec = SPEC_SUITE.get("352.ep")
        with pytest.raises(ValueError, match="duplicate"):
            SPEC_SUITE.register(spec)

    def test_wrong_suite_rejected(self):
        from repro.bench import BenchmarkSpec

        bogus = BenchmarkSpec(
            suite="nas", name="X", language="c", description="", source="", env={}
        )
        with pytest.raises(ValueError, match="belongs"):
            SPEC_SUITE.register(bogus)


class TestClauseUsageMatchesPaper:
    def test_dim_only_on_fortran_355_356(self):
        """Section V-C: dim is used in 355 and 356 only."""
        with_dim = [s.name for s in SPEC_SUITE.all() if s.uses_dim]
        assert sorted(with_dim) == ["355.seismic", "356.sp"]

    def test_c_benchmarks_have_no_dim(self):
        for spec in SPEC_SUITE.all() + NAS_SUITE.all():
            if spec.language == "c":
                assert not spec.uses_dim
                assert "dim(" not in spec.source

    def test_nas_all_c(self):
        assert all(s.language == "c" for s in NAS_SUITE.all())


class TestBenchmarkWellFormed:
    @pytest.mark.parametrize(
        "spec", SPEC_SUITE.all() + NAS_SUITE.all(), ids=lambda s: s.qualified_name
    )
    def test_parses_and_lowers(self, spec):
        fn = build_module(parse_program(spec.source)).functions[0]
        assert fn.regions(), "benchmark must contain offload regions"

    @pytest.mark.parametrize(
        "spec", SPEC_SUITE.all() + NAS_SUITE.all(), ids=lambda s: s.qualified_name
    )
    def test_compiles_under_base(self, spec):
        prog = SESSION.compile_source(spec.source, BASE)
        assert all(k.registers > 0 for k in prog.kernels)

    def test_seismic_has_seven_hot_kernels(self):
        prog = SESSION.compile_source(SPEC_SUITE.get("355.seismic").source, BASE)
        assert len(prog.kernels) == len(TABLE1_SEISMIC) == 7

    def test_sp_has_ten_hot_kernels(self):
        prog = SESSION.compile_source(SPEC_SUITE.get("356.sp").source, BASE)
        assert len(prog.kernels) == len(TABLE2_SP) == 10


class TestRegisterShape:
    """The Table I/II mechanisms, asserted as invariants rather than exact
    numbers: small never increases registers; dim (where applicable) never
    increases them further."""

    @pytest.mark.parametrize(
        "name", ["355.seismic", "356.sp", "351.palm"], ids=str
    )
    def test_small_monotone(self, name):
        spec = SPEC_SUITE.get(name)
        base = SESSION.compile_source(spec.source, BASE)
        small = SESSION.compile_source(spec.source, SMALL)
        for kb, ks in zip(base.kernels, small.kernels):
            assert ks.registers <= kb.registers

    @pytest.mark.parametrize("name", ["355.seismic", "356.sp"], ids=str)
    def test_dim_monotone(self, name):
        spec = SPEC_SUITE.get(name)
        small = SESSION.compile_source(spec.source, SMALL)
        dim = SESSION.compile_source(spec.source, SMALL_DIM)
        for ks, kd in zip(small.kernels, dim.kernels):
            assert kd.registers <= ks.registers

    def test_seismic_dim_saves_substantially(self):
        spec = SPEC_SUITE.get("355.seismic")
        base = SESSION.compile_source(spec.source, BASE)
        dim = SESSION.compile_source(spec.source, SMALL_DIM)
        # Table I: every hot kernel saves at least a third of its registers.
        for kb, kd in zip(base.kernels, dim.kernels):
            assert kd.registers <= (2 * kb.registers) // 3

    def test_sp_na_rows_dim_noop(self):
        """Kernels using <2 same-shape allocatables: dim == small."""
        spec = SPEC_SUITE.get("356.sp")
        small = SESSION.compile_source(spec.source, SMALL)
        dim = SESSION.compile_source(spec.source, SMALL_DIM)
        na_rows = [0, 2, 5, 9]  # HOT1, HOT3, HOT6, HOT10
        for i in na_rows:
            assert dim.kernels[i].registers == small.kernels[i].registers
