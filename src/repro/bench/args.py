"""Concrete test-scale arguments for benchmark kernels.

Used by the integration tests and the examples: builds random (but
deterministic) NumPy inputs matching a benchmark's parameter declarations
at its reduced ``test_env`` sizes through
:func:`repro.gpu.interpreter.build_run_args`, adding each benchmark's
scalar values, pointer sizes and own index arrays (CSR structure,
neighbour lists).
"""

from __future__ import annotations

import numpy as np

from ..compiler.session import default_session
from ..gpu.interpreter import build_run_args
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
    # The benchmark's own arrays draw first; the generic ones follow
    # from the same generator.
    given = spec.make_test_args(env, rng) if spec.make_test_args else None
    run_env = {**env, **spec.scalar_args}
    for name, size in spec.pointer_sizes(env).items():
        run_env[f"__len_{name}"] = size
    return fn, build_run_args(fn, run_env, rng, given=given)


def copy_args(args: dict[str, object]) -> dict[str, object]:
    """Deep-copy the array arguments (scalars are immutable)."""
    return {
        k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in args.items()
    }
