"""Vectorized execution engine sweep — scalar interpreter vs batched NumPy.

Runs every modelled SPEC ACCEL / NAS benchmark through both functional
executors at scaled-up problem sizes, asserts bit-identical outputs and
exactly-equal :class:`~repro.gpu.interpreter.ExecutionStats`, and records
the wall-clock speedup table to ``benchmarks/results/exec_vectorized.txt``.

Usage::

    PYTHONPATH=src python benchmarks/bench_exec_vectorized.py          # full
    PYTHONPATH=src python benchmarks/bench_exec_vectorized.py --quick  # CI

``--quick`` runs at the tiny ``test_env`` sizes (a correctness smoke, not
a timing claim) and does not touch the committed results file.  The full
run scales each benchmark's test sizes up (capped at the paper's real
sizes) so the Python-loop interpreter takes measurable time while the
batched engine's per-step NumPy cost stays amortised.  Every mode prints
each kernel's guard census (``codegen.guards.static`` / ``.dynamic`` of
its generated program) and fails if a benchmark diverges from the oracle
or if any kernel other than the EP pair runs on the scalar tier.
"""

from __future__ import annotations

import argparse
import math
import pathlib
import sys
import time

import numpy as np

from repro.bench import SPEC, NAS, load_all
from repro.bench.args import build_test_args, copy_args
from repro.bench.core import BenchmarkSpec
from repro.codegen.numpy_source import guard_census
from repro.gpu.interpreter import bind_arguments, run_kernel
from repro.gpu.vector_exec import argument_signature, execute_kernel

RESULTS = pathlib.Path(__file__).parent / "results" / "exec_vectorized.txt"

#: The only kernels expected on the scalar tier: the EP pair's LCG leaves
#: the int64-safe product range in data-dependent locals.
SCALAR_TIER = {"352.ep", "EP"}

#: Full-mode size multiplier over ``test_env`` (capped at the real sizes).
FULL_SCALE = 4

#: Per-benchmark overrides: 3D stencils grow cubically with the scale, so
#: x4 already gives the interpreter seconds of work — but the 1D/sparse
#: benchmarks (LBM sites, MRI points, MD neighbour lists, CSR rows) grow
#: linearly and need larger factors before the batched engine's fixed
#: per-step cost amortises.
FULL_SCALES = {
    "304.olbm": 16,
    "314.omriq": 8,
    "350.md": 12,
    "354.cg": 128,
    "CG": 128,
}


def scaled_env(spec: BenchmarkSpec, scale: int) -> dict[str, int]:
    """Scale the benchmark's test sizes by ``scale``.

    Keys the full-size ``env`` keeps equal to ``test_env`` are structural
    constants (block widths like 356.sp's ``n5``) and stay fixed, as do
    ``__``-prefixed harness knobs (trip counts).  Everything else scales,
    capped at the paper's real size.  The CG benchmarks' ``nrows1`` is the
    CSR offset-array length and is re-derived as ``nrows + 1``.
    """
    base = dict(spec.test_env or spec.env)
    full = dict(spec.env)
    out: dict[str, int] = {}
    for key, value in base.items():
        if key.startswith("__") or full.get(key) == value:
            out[key] = value
        else:
            out[key] = min(value * scale, full.get(key, value * scale))
    if "nrows" in out and "nrows1" in out:
        out["nrows1"] = out["nrows"] + 1
    return out


def run_one(spec: BenchmarkSpec, scale: int) -> dict:
    env = scaled_env(spec, scale)
    fn, args = build_test_args(spec, env=env)

    t0 = time.perf_counter()
    scalar_arrays, scalar_stats = run_kernel(fn, copy_args(args))
    t_scalar = time.perf_counter() - t0

    fn2, args2 = build_test_args(spec, env=env)
    scalars, arrays, _ = bind_arguments(fn2, args2)
    census = guard_census(fn2, signature=argument_signature(scalars, arrays))
    t0 = time.perf_counter()
    vec_arrays, vec_stats, info = execute_kernel(fn2, args2, executor="auto")
    t_vector = time.perf_counter() - t0

    identical = sorted(scalar_arrays) == sorted(vec_arrays) and all(
        np.array_equal(scalar_arrays[k], vec_arrays[k]) for k in scalar_arrays
    )
    return {
        "name": spec.name,
        "scale": scale,
        "executor": info.used,
        "reason": info.fallback_reason,
        "iterations": scalar_stats.iterations,
        "scalar_ms": t_scalar * 1e3,
        "vector_ms": t_vector * 1e3,
        "speedup": t_scalar / t_vector if t_vector > 0 else float("inf"),
        "identical": identical,
        "stats_equal": scalar_stats == vec_stats,
        "guards_static": sum(s for s, _ in census.values()),
        "guards_dynamic": sum(d for _, d in census.values()),
    }


def render(rows: list[dict]) -> str:
    lines = [
        "vectorized execution engine: scalar interpreter vs batched NumPy",
        "(deterministic inputs, sizes = test_env x scale capped at real "
        "sizes; identical = bit-for-bit output equality, stats = exact "
        "ExecutionStats equality)",
        "",
        f"{'benchmark':<14} {'scale':>5} {'executor':<8} {'iterations':>10} "
        f"{'scalar_ms':>10} {'vector_ms':>10} {'speedup':>8}  "
        f"{'identical':<9} {'stats':<5} {'guards static/dynamic':>21}",
    ]
    for r in rows:
        lines.append(
            f"{r['name']:<14} {r['scale']:>5} {r['executor']:<8} "
            f"{r['iterations']:>10} "
            f"{r['scalar_ms']:>10.2f} {r['vector_ms']:>10.2f} "
            f"{r['speedup']:>7.1f}x  "
            f"{str(r['identical']).lower():<9} "
            f"{str(r['stats_equal']).lower():<5} "
            f"{r['guards_static']:>14}/{r['guards_dynamic']:<6}"
        )
    vec = [r["speedup"] for r in rows if r["executor"] == "codegen"]
    if vec:
        geomean = math.exp(sum(math.log(s) for s in vec) / len(vec))
        lines.append("")
        lines.append(
            f"geomean speedup over {len(vec)} generated-code kernels: "
            f"{geomean:.1f}x"
        )
    fallbacks = [r for r in rows if r["executor"] != "codegen"]
    for r in fallbacks:
        lines.append(f"fallback {r['name']}: {r['reason']}")
    return "\n".join(lines)


def sweep(scale: int, overrides: dict[str, int] | None = None) -> list[dict]:
    load_all()
    overrides = overrides or {}
    return [
        run_one(s, overrides.get(s.name, scale))
        for s in list(SPEC.all()) + list(NAS.all())
    ]


def unexpected_scalar(rows: list[dict]) -> list[str]:
    """Kernels that should run on generated code but fell back."""
    return [
        f"{r['name']}: {r['reason']}"
        for r in rows
        if r["executor"] != "codegen" and r["name"] not in SCALAR_TIER
    ]


def test_quick() -> None:
    """Correctness smoke at test sizes (collected by `pytest benchmarks/`)."""
    rows = sweep(scale=1)
    assert all(r["identical"] for r in rows), rows
    assert all(r["stats_equal"] for r in rows), rows
    assert unexpected_scalar(rows) == []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="test-env sizes, no results file (CI smoke)",
    )
    parser.add_argument(
        "--scale",
        type=int,
        default=None,
        help=f"uniform size multiplier (default: {FULL_SCALE} with "
        "per-benchmark overrides for linearly-scaling kernels)",
    )
    opts = parser.parse_args(argv)
    if opts.quick:
        rows = sweep(1)
    elif opts.scale is not None:
        rows = sweep(opts.scale)
    else:
        rows = sweep(FULL_SCALE, FULL_SCALES)
    table = render(rows)
    print(table)

    bad = [r for r in rows if not (r["identical"] and r["stats_equal"])]
    if bad:
        print(f"\nFAIL: {len(bad)} benchmark(s) diverged", file=sys.stderr)
        return 1
    fallbacks = unexpected_scalar(rows)
    if fallbacks:
        print(
            "\nFAIL: expected on generated code, ran on scalar:\n  "
            + "\n  ".join(fallbacks),
            file=sys.stderr,
        )
        return 1
    if not opts.quick:
        RESULTS.parent.mkdir(exist_ok=True)
        RESULTS.write_text(table + "\n")
        print(f"\nwrote {RESULTS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
