"""Ablation 1 — the GPU-aware cost model (paper Section III-A.2).

SAFARA prices candidates as count × latency; the Carr-Kennedy metric is
count only.  Setting every latency equal in the model degenerates the
ranking to count-only, isolating the cost model's contribution: under a
tight register budget the latency-aware ranking picks the *uncoalesced*
chain (the paper's Figure 5 argument: replacing b beats replacing a) and
wins on time.
"""

import pytest

from repro.analysis.cost_model import LatencyModel
from repro.compiler import CompilerSession
from repro.gpu.registers import ptxas_info
from repro.gpu.timing import estimate_time
from repro.codegen import generate_kernel
from repro.ir import build_module
from repro.lang import parse_program

#: A kernel with one coalesced chain (more references) and one uncoalesced
#: chain (fewer references) — the paper's Figure 5 tension.  Both chains
#: need the same 4 registers, so a 4-register budget admits exactly one:
#: count-only ranking picks `coal` (3 refs), latency-aware picks `uncoal`.
SRC = """
kernel mixed(double out[1:ny][1:nx], const double coal[1:ny][1:nx],
             const double uncoal[1:nx][1:ny], int nx, int ny) {
  #pragma acc kernels loop gang vector(64)
  for (i = 2; i < nx - 1; i++) {
    #pragma acc loop seq
    for (j = 2; j < ny - 1; j++) {
      out[j][i] = coal[j][i] * coal[j][i] + coal[j-1][i]
                + uncoal[i][j] + uncoal[i][j-1];
    }
  }
}
"""

ENV = {"nx": 4096, "ny": 512}

#: Count-only ranking: all latencies identical.
FLAT = LatencyModel(
    global_mem=100.0,
    readonly_cache=100.0,
    constant_cache=100.0,
    shared_mem=100.0,
    local_mem=100.0,
    uncoalesced_factor=1.0,
    uniform_factor=1.0,
)


def _run(latency, budget_regs):
    fn = build_module(parse_program(SRC)).functions[0]
    region = fn.regions()[0]
    base_regs = ptxas_info(generate_kernel(region, fn.symtab)).registers
    CompilerSession().optimize_region(
        region,
        fn.symtab,
        register_limit=base_regs + budget_regs,
        latency=latency,
    )
    kernel = generate_kernel(region, fn.symtab)
    info = ptxas_info(kernel)
    return estimate_time(kernel, info, ENV).time_ms


def test_latency_aware_ranking_beats_count_only(benchmark):
    def run_both():
        # Budget fits exactly one span-1 double chain (4 registers).
        aware = _run(None, budget_regs=4)
        flat = _run(FLAT, budget_regs=4)
        return aware, flat

    aware, flat = benchmark.pedantic(run_both, iterations=1, rounds=1)
    # The latency-aware choice (the uncoalesced chain) is faster.
    assert aware < flat
    print(f"\nablation[cost-model]: latency-aware={aware:.3f}ms count-only={flat:.3f}ms "
          f"advantage={flat/aware:.2f}x")
