"""Tests for the benchmark argument builder."""

import numpy as np
import pytest

from repro.bench import load_all
from repro.bench.args import build_test_args, copy_args
from repro.compiler.session import default_session
from repro.gpu.interpreter import numpy_dtype

SPEC_SUITE, NAS_SUITE = load_all()
ALL_SPECS = SPEC_SUITE.all() + NAS_SUITE.all()


def reference_test_args(spec, seed=0, env=None):
    """The argument builder before it was built on
    ``gpu.interpreter.build_run_args``: its own copy of the shape rules
    and value ranges, pointer sizes from ``pointer_lens``, and the
    benchmark's own arrays drawn first from the same generator."""
    fn = default_session().function(spec.source).clone()
    env = dict(env) if env is not None else dict(spec.test_env or spec.env)
    rng = np.random.default_rng(seed)
    args = {k: v for k, v in env.items() if not k.startswith("__")}
    args.update(spec.scalar_args)

    overrides = {}
    if spec.make_test_args is not None:
        overrides = spec.make_test_args(env, rng)

    pointer_sizes = spec.pointer_sizes(env)
    for param in fn.params:
        if param.array is None:
            if param.name not in args:
                raise KeyError(f"no value for scalar parameter {param.name!r}")
            continue
        if param.name in overrides:
            args[param.name] = overrides[param.name]
            continue
        if param.array.is_pointer:
            shape = (pointer_sizes[param.name],)
        else:
            shape = tuple(
                d.extent if isinstance(d.extent, int) else int(env[d.extent.name])
                for d in param.array.dims
            )
        dtype = numpy_dtype(param)
        if np.issubdtype(dtype, np.floating):
            args[param.name] = rng.uniform(0.5, 2.0, size=shape).astype(dtype)
        else:
            args[param.name] = rng.integers(0, 3, size=shape).astype(dtype)
    return fn, args


class TestAgainstReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_benchmark_matches_bit_for_bit(self, seed):
        assert len(ALL_SPECS) == 16
        for spec in ALL_SPECS:
            _, args = build_test_args(spec, seed=seed)
            _, ref = reference_test_args(spec, seed=seed)
            assert list(args) == list(ref), spec.name
            for name, want in ref.items():
                got = args[name]
                if isinstance(want, np.ndarray):
                    assert got.dtype == want.dtype, (spec.name, name)
                    assert got.tobytes() == want.tobytes(), (spec.name, name)
                else:
                    assert type(got) is type(want) and got == want, (
                        spec.name, name,
                    )


class TestBuildTestArgs:
    def test_shaped_arrays_match_declared_dims(self):
        spec = SPEC_SUITE.get("355.seismic")
        fn, args = build_test_args(spec)
        env = spec.test_env
        assert args["vx"].shape == (env["nz"], env["ny"], env["nx"])
        assert args["vx"].dtype == np.float64

    def test_pointer_arrays_use_pointer_lens(self):
        spec = SPEC_SUITE.get("303.ostencil")
        fn, args = build_test_args(spec)
        env = spec.test_env
        assert args["a0"].shape == (env["nx"] * env["ny"] * env["nz"],)

    def test_overrides_take_precedence(self):
        spec = SPEC_SUITE.get("354.cg")
        fn, args = build_test_args(spec)
        # rowstr built by the benchmark's own maker: monotone row starts.
        rowstr = args["rowstr"]
        assert (np.diff(rowstr) >= 0).all()

    def test_deterministic_given_seed(self):
        spec = NAS_SUITE.get("MG")
        _, a = build_test_args(spec, seed=5)
        _, b = build_test_args(spec, seed=5)
        np.testing.assert_array_equal(a["u"], b["u"])

    def test_different_seeds_differ(self):
        spec = NAS_SUITE.get("MG")
        _, a = build_test_args(spec, seed=1)
        _, b = build_test_args(spec, seed=2)
        assert not np.array_equal(a["u"], b["u"])

    def test_scalar_args_included(self):
        spec = SPEC_SUITE.get("355.seismic")
        _, args = build_test_args(spec)
        assert args["h"] == 0.5
        assert args["dt"] == 0.01

    def test_private_env_keys_excluded(self):
        spec = SPEC_SUITE.get("354.cg")
        _, args = build_test_args(spec)
        assert "__trips_k" not in args

    def test_copy_args_isolates_arrays(self):
        spec = NAS_SUITE.get("MG")
        _, args = build_test_args(spec)
        clone = copy_args(args)
        clone["u"][0] = 999.0
        assert args["u"][0] != 999.0
