#!/usr/bin/env python3
"""Quickstart: compile an OpenACC kernel through the full pipeline.

Walks the paper's machinery end to end on a small seismic-style kernel:

1. parse MiniACC source with OpenACC directives (including the proposed
   ``dim`` and ``small`` clauses);
2. compile it under four compiler configurations;
3. read back the simulated ``PTXAS info`` register reports;
4. estimate execution time on the simulated Tesla K20Xm;
5. verify that every configuration computes identical results.

Compiling and timing go through a ``CompilerSession``
(``docs/pipeline.md``), which adds caching (including a persistent disk
tier), batching, and statistics.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.bench.metrics import speedup
from repro.compiler import (
    BASE,
    SAFARA_ONLY,
    SMALL_DIM,
    SMALL_DIM_SAFARA,
    CompilerSession,
)
from repro.gpu.interpreter import run_kernel
from repro.ir import build_module
from repro.lang import parse_program

session = CompilerSession()

SOURCE = """
kernel wave(const double p0[1:nz][1:ny][1:nx], const double p1[1:nz][1:ny][1:nx],
            double p2[1:nz][1:ny][1:nx], const double vel[1:nz][1:ny][1:nx],
            double dt, int nx, int ny, int nz) {
  #pragma acc kernels loop gang vector(2) \\
      dim((1:nz, 1:ny, 1:nx)(p0, p1, p2, vel)) small(p0, p1, p2, vel)
  for (j = 2; j < ny; j++) {
    #pragma acc loop gang vector(64)
    for (i = 2; i < nx; i++) {
      #pragma acc loop seq
      for (k = 2; k < nz; k++) {
        double lap = p1[k][j][i+1] + p1[k][j][i-1]
                   + p1[k][j+1][i] + p1[k][j-1][i]
                   + p1[k+1][j][i] + p1[k-1][j][i]
                   - 6.0 * p1[k][j][i];
        p2[k][j][i] = 2.0 * p1[k][j][i] - p0[k][j][i]
                    + dt * vel[k][j][i] * lap;
      }
    }
  }
}
"""

PROBLEM = {"nx": 512, "ny": 256, "nz": 128}


def main() -> None:
    print("=== compile under four configurations ===")
    configs = [BASE, SAFARA_ONLY, SMALL_DIM, SMALL_DIM_SAFARA]
    base_ms = None
    for config in configs:
        program = session.compile_source(SOURCE, config)
        kernel = program.kernels[0]
        timing = session.time_program(program, PROBLEM, launches=100)
        ms = timing.total_ms
        if base_ms is None:
            base_ms = ms
        extra = ""
        if kernel.safara is not None:
            extra = (
                f"  [SAFARA: {kernel.safara.groups_replaced} groups replaced in "
                f"{len(kernel.safara.iterations)} feedback round(s), "
                f"{kernel.backend_compilations} backend compilations]"
            )
        print(
            f"{config.name:28s} {kernel.ptxas.summary()}\n"
            f"{'':28s} occupancy={timing.kernels[0].occupancy.occupancy:.2f} "
            f"bound={timing.kernels[0].bound} time={ms:8.2f} ms "
            f"speedup={speedup(base_ms, ms):4.2f}x{extra}"
        )

    print("\n=== verify semantics are preserved ===")
    rng = np.random.default_rng(7)
    small = {"nx": 10, "ny": 8, "nz": 6}
    shape = (small["nz"], small["ny"], small["nx"])

    def run(config):
        fn = build_module(parse_program(SOURCE)).functions[0]
        if config is not None:
            session.compile_function(fn, config)
        args = {
            "p0": p0.copy(), "p1": p1.copy(), "p2": np.zeros(shape),
            "vel": vel.copy(), "dt": 0.001, **small,
        }
        arrays, stats = run_kernel(fn, args)
        return arrays["p2"], stats

    p0 = rng.uniform(-1, 1, shape)
    p1 = rng.uniform(-1, 1, shape)
    vel = rng.uniform(1, 4, shape)

    reference, ref_stats = run(None)
    for config in (SAFARA_ONLY, SMALL_DIM_SAFARA):
        result, stats = run(config)
        np.testing.assert_array_equal(reference, result)
        print(
            f"{config.name:28s} identical results; dynamic loads "
            f"{ref_stats.loads} -> {stats.loads}"
        )
    print("\nok — see examples/seismic_tuning.py for the paper's flagship study")


if __name__ == "__main__":
    main()
