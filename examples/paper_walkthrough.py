#!/usr/bin/env python3
"""Walkthrough of the paper's worked examples (Figures 3–6).

Shows, with before/after source listings produced by the actual
transformation machinery:

* Figure 3 → Figure 4: classic Carr-Kennedy scalar replacement turning an
  independent loop into a sequential one (the hazard);
* Figure 5 → Figure 6: SAFARA on the two-loop example — the cost model
  prefers the uncoalesced array ``b`` over the more-referenced ``a``, and
  replaces it only in the *sequential* inner loop;
* the per-step PTXAS feedback trace.

Compilation and the feedback loop go through one ``CompilerSession``
(``docs/pipeline.md``).

Run:  python examples/paper_walkthrough.py
"""

from repro.analysis import analyze_loops, classify_access, find_reuse_groups
from repro.compiler import CARR_KENNEDY, CompilerSession
from repro.ir import build_module, format_function
from repro.lang import parse_program

session = CompilerSession()

FIG3 = """
kernel fig3(double a[sz], const double b[sz], int SIZE, int sz) {
  #pragma acc kernels loop gang vector(128)
  for (i = 1; i <= SIZE; i++) {
    a[i] = (b[i] + b[i+1]) / 2;
  }
}
"""

FIG5 = """
kernel fig5(double a[isz2][jsz2], const double b[jsz2][isz2],
            double c[jsz2], double d[jsz2],
            int ISIZE, int JSIZE, int isz2, int jsz2) {
  #pragma acc kernels loop gang vector(64)
  for (j = 1; j <= JSIZE; j++) {
    c[j] = b[j][0] + b[j][1];
    d[j] = c[j] * b[j][0];
    #pragma acc loop seq
    for (i = 1; i <= ISIZE; i++) {
      a[i][j] += a[i-1][j] + b[j][i-1] + a[i+1][j] + b[j][i+1];
    }
  }
}
"""


def banner(text: str) -> None:
    print(f"\n{'=' * 72}\n{text}\n{'=' * 72}")


def main() -> None:
    banner("Figure 3: independent iterations (before)")
    fn = build_module(parse_program(FIG3)).functions[0]
    print(format_function(fn))

    banner("Figure 4: after classic Carr-Kennedy — the loop is now SEQUENTIAL")
    session.compile_function(fn, CARR_KENNEDY)
    print(format_function(fn))
    from repro.ir import Loop

    loop = next(s for s in fn.regions()[0].body if isinstance(s, Loop))
    print(f"\nloop.sequentialized = {loop.sequentialized}  "
          "(the rotation b1 = b0 carries a value across iterations)")

    banner("Figure 5: the running example (before)")
    fn5 = build_module(parse_program(FIG5)).functions[0]
    print(format_function(fn5))

    banner("SAFARA's analysis of the inner (sequential) i-loop")
    region = fn5.regions()[0]
    info = analyze_loops(region)
    iloop = next(l for l in info.loops if l.var.name == "i")
    for group in find_reuse_groups(iloop):
        access = classify_access(group.generator.ref, info.vector_var)
        print(
            f"array {group.array.name}: kind={group.kind.value:9s} "
            f"refs={group.ref_count} span={group.span} "
            f"written={group.has_write} access={access.pattern.value}"
        )
    print(
        "\n-> a is coalesced (and written): not profitable / not legal to rotate"
        "\n-> b is uncoalesced and read-only: the top-cost candidate"
    )

    banner("Figure 6: after SAFARA (feedback-driven)")
    report, feedback = session.optimize_region(region, fn5.symtab)
    print(format_function(fn5))
    print("\nPTXAS feedback trace:")
    for step, ptxas in enumerate(feedback.history):
        print(f"  compile #{step + 1}: {ptxas.summary()}")
    print(
        f"groups replaced: {report.groups_replaced}; "
        f"converged: {report.converged_reason}"
    )


if __name__ == "__main__":
    main()
