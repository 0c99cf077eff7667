"""Concrete test-scale arguments for benchmark kernels.

Used by the integration tests and the examples: builds random (but
deterministic) NumPy inputs matching a benchmark's parameter declarations
at its reduced ``test_env`` sizes, honouring per-benchmark overrides for
index arrays (CSR structure, neighbour lists).
"""

from __future__ import annotations

import numpy as np

from ..compiler.session import default_session
from ..gpu.interpreter import numpy_dtype
from ..ir.module import KernelFunction
from .core import BenchmarkSpec


def build_test_args(
    spec: BenchmarkSpec,
    seed: int = 0,
    env: dict[str, int] | None = None,
) -> tuple[KernelFunction, dict[str, object]]:
    """Build interpreter-ready arguments for the benchmark at test scale
    (or at explicit ``env`` sizes).  Returns a private clone of the default
    session's parse plus the argument dict (arrays are newly allocated;
    safe to mutate)."""
    fn = default_session().function(spec.source).clone()
    env = dict(env) if env is not None else dict(spec.test_env or spec.env)
    rng = np.random.default_rng(seed)
    args: dict[str, object] = {
        k: v for k, v in env.items() if not k.startswith("__")
    }
    args.update(spec.scalar_args)

    overrides: dict[str, np.ndarray] = {}
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
            size = pointer_sizes.get(param.name)
            if size is None:
                raise KeyError(
                    f"benchmark {spec.name} lacks pointer_lens entry for "
                    f"{param.name!r}"
                )
            shape: tuple[int, ...] = (size,)
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


def copy_args(args: dict[str, object]) -> dict[str, object]:
    """Deep-copy the array arguments (scalars are immutable)."""
    return {
        k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in args.items()
    }
