"""Ablation 2 — iterative assembler feedback (paper Section III-B.2).

The paper compiles the kernel repeatedly, reading PTXAS register usage
back each round, instead of guessing a register budget once.  This bench
compares the full iterative loop against a one-shot variant and against
blind fixed budgets, on the seismic flagship.
"""

from repro.bench import load_all
from repro.compiler import CompilerSession
from repro.feedback import FeedbackCompiler
from repro.ir import build_module
from repro.lang import parse_program
from repro.transforms import apply_safara

session = CompilerSession()


def _seismic_region():
    spec, _ = load_all()
    src = spec.get("355.seismic").source
    fn = build_module(parse_program(src)).functions[0]
    return fn, fn.regions()[0]


def test_feedback_vs_one_shot(benchmark):
    def run():
        # Full iterative feedback.
        fn_a, region_a = _seismic_region()
        full, fb_full = session.optimize_region(region_a, fn_a.symtab)

        # One feedback round only.
        fn_b, region_b = _seismic_region()
        fb = FeedbackCompiler(symtab=fn_b.symtab)
        one_shot = apply_safara(region_b, fn_b.symtab, fb, max_iterations=1)
        return full, fb_full, one_shot

    full, fb_full, one_shot = benchmark.pedantic(run, iterations=1, rounds=1)

    # The iterative loop keeps compiling until nothing more fits.
    assert fb_full.compilations >= 2
    assert full.groups_replaced >= one_shot.groups_replaced
    # Feedback keeps the final count under the limit *by construction* —
    # the defining property a blind budget cannot guarantee.
    assert full.final_registers <= full.register_limit
    print(
        f"\nablation[feedback]: iterative groups={full.groups_replaced} "
        f"(compilations={fb_full.compilations}) vs one-shot groups="
        f"{one_shot.groups_replaced}"
    )


def test_feedback_adapts_to_tight_limits(benchmark):
    def run():
        results = {}
        for limit in (None, 160, 112):
            fn, region = _seismic_region()
            report, _ = session.optimize_region(region, fn.symtab, register_limit=limit)
            results[limit or 255] = report
        return results

    results = benchmark.pedantic(run, iterations=1, rounds=1)
    # Tighter limits -> fewer replacements, never a limit violation.
    counts = [results[k].groups_replaced for k in sorted(results, reverse=True)]
    assert counts == sorted(counts, reverse=True)
    for limit, report in results.items():
        assert report.final_registers <= limit
