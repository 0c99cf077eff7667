"""Unit tests for OpenACC directive parsing, including the proposed
``dim`` and ``small`` clauses (paper Section IV)."""

import pytest

from repro.lang import DirectiveError, parse_directive
from repro.lang.directives import ComputeDirective, DimGroup, DimSpec, LoopDirective


class TestComputeConstructs:
    def test_plain_kernels(self):
        d = parse_directive("pragma acc kernels")
        assert isinstance(d, ComputeDirective)
        assert d.construct == "kernels"
        assert d.combined_loop is None

    def test_plain_parallel(self):
        d = parse_directive("pragma acc parallel")
        assert d.construct == "parallel"

    def test_non_acc_pragma_returns_none(self):
        assert parse_directive("pragma omp parallel for") is None
        assert parse_directive("pragma once") is None

    def test_unknown_construct_raises(self):
        with pytest.raises(DirectiveError):
            parse_directive("pragma acc teams")

    def test_data_clauses(self):
        d = parse_directive("pragma acc kernels copyin(a, b) copyout(c) copy(d)")
        assert d.data["copyin"] == ("a", "b")
        assert d.data["copyout"] == ("c",)
        assert d.data["copy"] == ("d",)

    def test_data_clause_with_subarray_bounds(self):
        d = parse_directive("pragma acc parallel copyin(a[0:n], b[1:m])")
        assert d.data["copyin"] == ("a", "b")

    def test_num_gangs_and_vector_length(self):
        d = parse_directive("pragma acc parallel num_gangs(128) vector_length(256)")
        assert d.num_gangs == 128
        assert d.vector_length == 256

    def test_repeated_data_clause_accumulates(self):
        d = parse_directive("pragma acc kernels copyin(a) copyin(b)")
        assert d.data["copyin"] == ("a", "b")


class TestCombinedConstruct:
    def test_kernels_loop_combined(self):
        d = parse_directive("pragma acc kernels loop gang vector(64)")
        assert isinstance(d, ComputeDirective)
        assert d.combined_loop is not None
        assert d.combined_loop.gang is True
        assert d.combined_loop.vector == 64

    def test_paper_figure8_style(self):
        # '!$acc kernels loop gang(NY/2) vector(2)' — C spelling.
        d = parse_directive("pragma acc kernels loop gang(32) vector(2)")
        assert d.combined_loop.gang == 32
        assert d.combined_loop.vector == 2

    def test_clauses_after_loop_keyword_route_correctly(self):
        d = parse_directive(
            "pragma acc kernels loop gang vector(64) small(a) dim([n](a))"
        )
        assert d.small == ("a",)
        assert len(d.dim_groups) == 1
        assert d.combined_loop.vector == 64

    def test_gang_size_expression_constant_folds(self):
        # Paper Fig. 8 uses gang((NX-1+63)/64); with literals this folds.
        d = parse_directive("pragma acc kernels loop gang((127+63)/64) vector(64)")
        assert d.combined_loop.gang == (127 + 63) // 64

    def test_gang_size_symbolic_kept_as_text(self):
        d = parse_directive("pragma acc kernels loop gang((NX-1+63)/64)")
        assert isinstance(d.combined_loop.gang, str)
        assert "NX" in d.combined_loop.gang

    @pytest.mark.parametrize(
        "size, value",
        [
            ("-7/2", -4),
            ("7%-3", -2),
            ("-(3)*-2", 6),
            ("2*(3+4)%5", 4),
            ("7-2-1", 4),
            ("+".join(["1"] * 5000), 5000),
        ],
        ids=lambda v: v if not isinstance(v, str) or len(v) < 40 else f"{v[:10]}...({len(v)})",
    )
    def test_size_arithmetic_folds_with_floor_division(self, size, value):
        d = parse_directive(f"pragma acc kernels loop gang vector({size})")
        assert d.combined_loop.vector == value

    @pytest.mark.parametrize(
        "size",
        [
            "(lambda: 7)()",
            "[0 for a in [1] * 3 for b in [1] * 3]",
            "1/0",
            "064",
            "64.0",
            "2 3",
            "-" * 100_000 + "1",
            "(" * 100_000 + "1" + ")" * 100_000,
        ],
        ids=lambda size: size if len(size) < 40 else f"{size[:10]}...({len(size)})",
    )
    def test_size_that_is_not_integer_arithmetic_is_kept_as_text(self, size):
        d = parse_directive(f"pragma acc kernels loop gang vector({size})")
        assert isinstance(d.combined_loop.vector, str)


class TestLoopConstruct:
    def test_seq(self):
        d = parse_directive("pragma acc loop seq")
        assert isinstance(d, LoopDirective)
        assert d.seq
        assert not d.is_parallel

    def test_gang_vector_parallel(self):
        d = parse_directive("pragma acc loop gang vector(128)")
        assert d.is_parallel

    def test_independent(self):
        d = parse_directive("pragma acc loop independent")
        assert d.independent
        assert d.is_parallel

    def test_collapse(self):
        d = parse_directive("pragma acc loop gang collapse(2)")
        assert d.collapse == 2

    def test_collapse_requires_positive_int(self):
        with pytest.raises(DirectiveError):
            parse_directive("pragma acc loop collapse(n)")

    def test_reduction(self):
        d = parse_directive("pragma acc loop vector reduction(+:sum)")
        assert d.reductions[0].op == "+"
        assert d.reductions[0].var == "sum"

    @pytest.mark.parametrize("op", ["+", "*", "max", "min"])
    def test_reduction_ops(self, op):
        d = parse_directive(f"pragma acc loop reduction({op}:acc)")
        assert d.reductions[0].op == op

    def test_unknown_reduction_op_raises(self):
        from repro.lang import MiniAccError

        with pytest.raises(MiniAccError):
            parse_directive("pragma acc loop reduction(^:x)")

    def test_private(self):
        d = parse_directive("pragma acc loop gang private(t1, t2)")
        assert d.private == ("t1", "t2")

    def test_worker(self):
        d = parse_directive("pragma acc loop worker(4)")
        assert d.worker == 4

    def test_unknown_loop_clause_raises(self):
        with pytest.raises(DirectiveError):
            parse_directive("pragma acc loop tile(2)")


class TestDimClause:
    """Section IV-A: dim declares arrays sharing identical dimensions."""

    def test_c_style_with_lengths(self):
        d = parse_directive("pragma acc kernels dim([nx][ny](a, b, c))")
        (group,) = d.dim_groups
        assert group.arrays == ("a", "b", "c")
        assert group.dims == (
            DimSpec(extent="nx", lower=0),
            DimSpec(extent="ny", lower=0),
        )

    def test_fortran_style_with_bounds(self):
        # '!$acc kernels dim((0:NX, 0:NY, 0:NZ)(vz_1, vz_2, vz_3))'
        d = parse_directive("pragma acc kernels dim((0:NX, 0:NY, 0:NZ)(vz_1, vz_2, vz_3))")
        (group,) = d.dim_groups
        assert group.arrays == ("vz_1", "vz_2", "vz_3")
        assert group.dims[0] == DimSpec(extent="NX", lower=0)
        assert len(group.dims) == 3

    def test_fortran_style_nonzero_lower_bound(self):
        d = parse_directive("pragma acc kernels dim((1:n, 1:m)(a, b))")
        assert d.dim_groups[0].dims == (
            DimSpec(extent="n", lower=1),
            DimSpec(extent="m", lower=1),
        )

    def test_arrays_only_form(self):
        # '!$acc kernels dim( (vz_1, vz_2, vz_3))' — dims from dope vector.
        d = parse_directive("pragma acc kernels dim((vz_1, vz_2, vz_3))")
        (group,) = d.dim_groups
        assert group.arrays == ("vz_1", "vz_2", "vz_3")
        assert group.dims == ()

    def test_multiple_groups(self):
        d = parse_directive("pragma acc kernels dim([n](a, b), [m](c, d))")
        assert len(d.dim_groups) == 2
        assert d.dim_groups[0].arrays == ("a", "b")
        assert d.dim_groups[1].arrays == ("c", "d")

    def test_trailing_comma_in_group_tolerated(self):
        # The paper's own syntax listing shows 'dim(...(A1,...,),...)'.
        d = parse_directive("pragma acc kernels dim([n](a, b,))")
        assert d.dim_groups[0].arrays == ("a", "b")

    def test_integer_extents(self):
        d = parse_directive("pragma acc kernels dim([64][32](a))")
        assert d.dim_groups[0].dims == (
            DimSpec(extent=64, lower=0),
            DimSpec(extent=32, lower=0),
        )

    def test_empty_dim_raises(self):
        with pytest.raises(DirectiveError):
            parse_directive("pragma acc kernels dim()")

    def test_group_without_arrays_raises(self):
        with pytest.raises(DirectiveError):
            parse_directive("pragma acc kernels dim([n]())")


class TestSmallClause:
    """Section IV-B: small declares arrays with < 4GB extent (32-bit offsets)."""

    def test_small_names(self):
        d = parse_directive("pragma acc kernels small(vz_1, vz_2, vz_3)")
        assert d.small == ("vz_1", "vz_2", "vz_3")

    def test_small_on_parallel(self):
        d = parse_directive("pragma acc parallel small(a)")
        assert d.small == ("a",)

    def test_small_combined_with_dim(self):
        d = parse_directive(
            "pragma acc kernels dim((0:NX, 0:NY, 0:NZ)(vz_1, vz_2, vz_3)) "
            "small(vz_1, vz_2, vz_3)"
        )
        assert d.small == ("vz_1", "vz_2", "vz_3")
        assert d.dim_groups[0].arrays == ("vz_1", "vz_2", "vz_3")

    def test_repeated_small_accumulates(self):
        d = parse_directive("pragma acc kernels small(a) small(b)")
        assert d.small == ("a", "b")
