#!/usr/bin/env python3
"""Runtime clause guards and register-cap tuning.

Two topics from the paper beyond the core algorithm:

1. **Section IV's safety net** — "the compiler can generate two versions
   of each kernel ... At runtime ... a decision will be made to execute
   the optimized or unoptimized kernel."  We compile a kernel whose `dim`
   clause may or may not be truthful depending on the runtime sizes, and
   watch the guard pick the right version.

2. **The open problem the paper cites (Volkov)** — the optimal
   registers-per-thread vs occupancy trade-off.  With the feedback loop's
   register cap (the `ptxas --maxrregcount` analogue) we sweep the
   trade-off curve on the seismic flagship.

Everything goes through one ``CompilerSession`` (``docs/pipeline.md``).

Run:  python examples/clause_guards_and_tuning.py
"""

from repro.bench import load_all
from repro.compiler import SMALL_DIM_SAFARA, CompilerSession
from repro.ir import build_module
from repro.lang import parse_program

session = CompilerSession()

GUARDED_SRC = """
kernel blend(const double u[1:nz][1:ny][1:nx], const double v[1:mz][1:my][1:mx],
             double out[1:nz][1:ny][1:nx],
             int nx, int ny, int nz, int mx, int my, int mz) {
  #pragma acc kernels loop gang vector(64) \\
      dim((1:nz, 1:ny, 1:nx)(u, v, out)) small(u, v, out)
  for (i = 1; i < nx; i++) {
    out[1][1][i] = 0.5 * (u[1][1][i] + v[1][1][i]);
  }
}
"""


def main() -> None:
    print("=== 1. runtime clause verification (two-version scheme) ===")
    fn = build_module(parse_program(GUARDED_SRC)).functions[0]
    guarded = session.compile_guarded(fn.regions()[0], fn.symtab, name="blend")
    print(f"optimized : {guarded.optimized_info.summary()}")
    print(f"fallback  : {guarded.fallback_info.summary()}")

    truthful = {"nx": 64, "ny": 32, "nz": 16, "mx": 64, "my": 32, "mz": 16}
    lying = dict(truthful, mz=8)  # v's shape no longer matches the clause

    for label, env in (("truthful sizes", truthful), ("lying sizes", lying)):
        kernel, info, verdict = guarded.select(env)
        print(f"\n{label}: selected {kernel.name} ({info.registers} regs)")
        for violation in verdict.violations:
            print(f"  runtime check failed -> {violation}")

    print("\n=== 2. register-cap sweep on 355.seismic (the Volkov trade-off) ===")
    spec_suite, _ = load_all()
    spec = spec_suite.get("355.seismic")
    print(f"{'cap':>5s} {'max regs':>9s} {'time':>11s}")
    best = None
    for limit in (32, 48, 64, 96, 128, 255):
        config = SMALL_DIM_SAFARA.derive(name=f"cap{limit}", register_limit=limit)
        prog = session.compile_source(spec.source, config)
        t = session.time_program(prog, dict(spec.env), launches=spec.launches)
        marker = ""
        if best is None or t.total_ms < best[1]:
            best = (limit, t.total_ms)
        print(f"{limit:5d} {prog.max_registers:9d} {t.total_ms:9.1f} ms")
    print(
        f"\nbest cap: {best[0]} registers/thread — an *interior* optimum: the "
        "paper's observation that maximum replacement is not maximum speed."
    )


if __name__ == "__main__":
    main()
