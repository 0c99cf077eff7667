"""Ablation 3 — the parallel-loop guard (paper Section III-B, limitation 1).

Applying classic Carr-Kennedy to the paper's Figure 3 loop rotates
registers across a *parallel* loop and sequentialises it: the launch
collapses to a single thread's worth of work per former-iteration block
and the GPU starves.  SAFARA's guard refuses the rotation and keeps the
loop parallel.  This bench quantifies that cliff.
"""

from repro.compiler import BASE, CARR_KENNEDY, SAFARA_ONLY, CompilerSession

FIG3_SRC = """
kernel fig3(double a[sz], const double b[sz], int SIZE, int sz) {
  #pragma acc kernels loop gang vector(128)
  for (i = 1; i <= SIZE; i++) {
    a[i] = (b[i] + b[i+1]) / 2;
  }
}
"""

ENV = {"SIZE": (1 << 20) - 2, "sz": 1 << 20}


def test_carr_kennedy_sequentialises_and_pays(benchmark):
    session = CompilerSession()

    def run():
        times = {}
        for cfg in (BASE, SAFARA_ONLY, CARR_KENNEDY):
            prog = session.compile_source(FIG3_SRC, cfg)
            times[cfg.name] = (
                session.time_program(prog, ENV).total_ms,
                prog.kernels[0].vir.launch.total_threads(ENV),
            )
        return times

    times = benchmark.pedantic(run, iterations=1, rounds=1)
    base_ms, base_threads = times[BASE.name]
    safara_ms, safara_threads = times[SAFARA_ONLY.name]
    ck_ms, ck_threads = times[CARR_KENNEDY.name]

    # SAFARA's guard preserves the launch topology.
    assert safara_threads == base_threads
    assert safara_ms <= base_ms * 1.05

    # Carr-Kennedy collapses the parallel loop: single-threaded launch and
    # a catastrophic slowdown (the Figure 3/4 hazard).
    assert ck_threads < base_threads
    assert ck_ms > 10 * base_ms
    print(
        f"\nablation[parallel-guard]: base={base_ms:.2f}ms safara={safara_ms:.2f}ms "
        f"carr-kennedy={ck_ms:.2f}ms ({ck_ms/base_ms:.0f}x slower, "
        f"threads {base_threads} -> {ck_threads})"
    )
