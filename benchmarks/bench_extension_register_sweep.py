"""Extension bench — the registers-vs-occupancy sweep the paper points at.

Section IV: "Finding the best combination between what is the optimal
number of registers to use by each thread and thread occupancy is a
complex problem [Volkov].  Note that this paper does not solve this
problem."  With a register-limit knob on the feedback loop (the analogue
of ``ptxas --maxrregcount``), the simulated substrate lets us *chart* that
problem: SAFARA replaces as much as fits under each cap, and the timing
model scores the occupancy/reuse trade-off.
"""

from repro.bench import load_all
from repro.compiler import SMALL_DIM_SAFARA, CompilerSession
from dataclasses import replace

LIMITS = [32, 48, 64, 96, 128, 255]


def test_register_limit_sweep(benchmark):
    spec_suite, _ = load_all()
    spec = spec_suite.get("355.seismic")
    session = CompilerSession()

    def run():
        results = {}
        for limit in LIMITS:
            config = replace(
                SMALL_DIM_SAFARA,
                name=f"limit{limit}",
                register_limit=limit,
            )
            prog = session.compile_source(spec.source, config)
            t = session.time_program(prog, dict(spec.env), launches=spec.launches)
            results[limit] = (t.total_ms, prog.max_registers)
        return results

    results = benchmark.pedantic(run, iterations=1, rounds=1)
    print()
    for limit, (ms, regs) in results.items():
        print(f"extension[maxregcount]: limit={limit:3d} regs_max={regs:3d} time={ms:9.1f} ms")

    # The cap is always respected.
    for limit, (_, regs) in results.items():
        assert regs <= limit

    # The sweep is informative: register policy moves the needle...
    times = [ms for ms, _ in results.values()]
    assert max(times) / min(times) > 1.1
    # ...and the best cap is an *interior* point: an explicit register cap
    # beats (or at worst ties) letting SAFARA run to the hardware maximum —
    # exactly the Volkov trade-off the paper leaves open.
    best_limit = min(results, key=lambda k: results[k][0])
    assert results[best_limit][0] <= results[255][0]
    assert best_limit < 255
    print(f"extension[maxregcount]: best cap = {best_limit}")
