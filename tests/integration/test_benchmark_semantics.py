"""Integration tests: every benchmark executes correctly at test scale,
and every compiler configuration preserves its semantics bit-for-bit.

This is the strongest guarantee in the repo: the full pipeline (LICM +
Carr-Kennedy/SAFARA + clause handling) is applied to real benchmark
kernels and the transformed IR must produce *identical* results in the
functional interpreter.
"""

import numpy as np
import pytest

from repro.bench import load_all
from repro.bench.args import build_test_args, copy_args
from repro.compiler import (
    BASE,
    CARR_KENNEDY,
    PGI,
    SAFARA_ONLY,
    SMALL_DIM_SAFARA,
    UNROLL_SAFARA,
    VECTOR_SAFARA,
    default_session,
)
from repro.gpu.interpreter import run_kernel

SPEC_SUITE, NAS_SUITE = load_all()
ALL_SPECS = SPEC_SUITE.all() + NAS_SUITE.all()
SESSION = default_session()
CONFIGS = [BASE, SAFARA_ONLY, SMALL_DIM_SAFARA, CARR_KENNEDY, PGI, UNROLL_SAFARA, VECTOR_SAFARA]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.qualified_name)
def test_benchmark_executes(spec):
    """The untransformed benchmark runs in-bounds at test scale."""
    fn, args = build_test_args(spec)
    arrays, stats = run_kernel(fn, args)
    assert stats.stores > 0  # EP-style kernels load nothing but all store
    for name, arr in arrays.items():
        assert np.all(np.isfinite(arr)), f"non-finite values in {name}"


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.qualified_name)
@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
def test_pipeline_preserves_semantics(spec, config):
    """Compiling under any configuration leaves results bit-identical."""
    ref_fn, ref_args = build_test_args(spec)
    ref_arrays, ref_stats = run_kernel(ref_fn, ref_args)

    xf_fn, xf_args = build_test_args(spec)
    SESSION.compile_function(xf_fn, config)  # mutates xf_fn's IR
    xf_arrays, xf_stats = run_kernel(xf_fn, xf_args)

    for name, expected in ref_arrays.items():
        np.testing.assert_array_equal(
            expected,
            xf_arrays[name],
            err_msg=f"{spec.qualified_name} under {config.name}: array {name!r}",
        )


@pytest.mark.parametrize(
    "spec",
    [s for s in ALL_SPECS if s.name in ("355.seismic", "BT", "LU", "304.olbm")],
    ids=lambda s: s.qualified_name,
)
def test_safara_reduces_dynamic_loads(spec):
    """On the reuse-heavy benchmarks SAFARA must reduce executed loads."""
    ref_fn, ref_args = build_test_args(spec)
    _, ref_stats = run_kernel(ref_fn, ref_args)

    xf_fn, xf_args = build_test_args(spec)
    SESSION.compile_function(xf_fn, SAFARA_ONLY)
    _, xf_stats = run_kernel(xf_fn, xf_args)
    assert xf_stats.loads < ref_stats.loads
