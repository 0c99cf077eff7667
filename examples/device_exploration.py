#!/usr/bin/env python3
"""Exploring the simulated GPU substrate.

The reproduction's device model is a library in its own right.  This
example:

* runs the Wong-style latency microbenchmarks (the numbers that seed the
  SAFARA cost model — paper reference [19]);
* sweeps occupancy against registers/thread (the curve behind the paper's
  register-pressure argument);
* shows how the same kernel compiles for a Kepler-class vs a Fermi-class
  device (no read-only cache, 63-register limit) and how SAFARA adapts.

Compiles go through one ``CompilerSession`` (``docs/pipeline.md``).

Run:  python examples/device_exploration.py
"""

from repro.compiler import SMALL_DIM_SAFARA, CompilerSession
from repro.gpu import FERMI_LIKE, KEPLER_K20XM, compute_occupancy, measure_all

session = CompilerSession()

SRC = """
kernel sweep(const double f1[1:nz][1:ny][1:nx], const double f2[1:nz][1:ny][1:nx],
             double out[1:nz][1:ny][1:nx], int nx, int ny, int nz) {
  #pragma acc kernels loop gang vector(2) small(f1, f2, out) \\
      dim((1:nz, 1:ny, 1:nx)(f1, f2, out))
  for (j = 2; j < ny; j++) {
    #pragma acc loop gang vector(64)
    for (i = 2; i < nx; i++) {
      #pragma acc loop seq
      for (k = 2; k < nz; k++) {
        out[k][j][i] = f1[k][j][i] - f1[k-1][j][i] + f2[k][j][i] - f2[k-1][j][i];
      }
    }
  }
}
"""

ENV = {"nx": 512, "ny": 256, "nz": 128}


def main() -> None:
    print("=== latency microbenchmark survey (Tesla K20Xm model) ===")
    for m in measure_all():
        print(f"  {m}")

    print("\n=== occupancy vs registers/thread (256 threads/block) ===")
    print(f"  {'regs':>5s} {'blocks/SM':>9s} {'warps':>6s} {'occupancy':>9s}  limited by")
    for regs in (16, 32, 48, 64, 96, 128, 168, 255):
        occ = compute_occupancy(regs, 256)
        print(
            f"  {regs:5d} {occ.blocks_per_sm:9d} {occ.active_warps:6d} "
            f"{occ.occupancy:9.2f}  {occ.limited_by}"
        )

    print("\n=== the same kernel on two device generations ===")
    for arch in (KEPLER_K20XM, FERMI_LIKE):
        config = SMALL_DIM_SAFARA.with_arch(arch)
        prog = session.compile_source(SRC, config)
        k = prog.kernels[0]
        t = session.time_program(prog, ENV, launches=50)
        loads = [
            i for i in k.vir.instrs if i.op.value == "ld"
        ]
        readonly = sum(1 for i in loads if i.space.value == "readonly")
        print(
            f"  {arch.name:16s} regs={k.registers:3d} "
            f"(limit {arch.max_registers_per_thread}) "
            f"readonly-cached loads={readonly}/{len(loads)} "
            f"groups={k.safara.groups_replaced} time={t.total_ms:8.2f} ms"
        )
    print(
        "\nNote the Fermi profile: no read-only data cache (the paper calls the"
        "\nread-only class 'available in NVIDIA Kepler GPUs only') and a 63-"
        "\nregister ceiling that the feedback loop respects automatically."
    )


if __name__ == "__main__":
    main()
