#!/usr/bin/env python3
"""The paper's flagship study: tuning 355.seismic with dim/small + SAFARA.

Reproduces the Section V narrative on the seismic benchmark model:

* Figure 7's hazard — SAFARA alone exhausts registers and *slows the
  benchmark down*;
* Table I — per-hot-kernel register usage under base / +small / w dim;
* Figure 9 — the cumulative speedups once the clauses free registers.

Also prints the CUDA-like rendering of the Figure 8 kernel (HOT5) so you
can see the offset sharing the ``dim`` clause enables.

Compiles go through one ``CompilerSession`` (``docs/pipeline.md``).

Run:  python examples/seismic_tuning.py
"""

from repro.bench import load_all
from repro.bench.paper_data import TABLE1_SEISMIC
from repro.codegen import render_cuda
from repro.compiler import (
    BASE,
    SAFARA_ONLY,
    SMALL,
    SMALL_DIM,
    SMALL_DIM_SAFARA,
    CompilerSession,
)
from repro.ir import build_module
from repro.lang import parse_program

session = CompilerSession()


def main() -> None:
    spec_suite, _ = load_all()
    spec = spec_suite.get("355.seismic")
    print(f"benchmark: {spec.qualified_name} — {spec.description}\n")

    # -- Table I: per-kernel registers ------------------------------------
    print("=== Table I: hot-kernel register usage (ours vs paper) ===")
    progs = {
        "base": session.compile_source(spec.source, BASE),
        "small": session.compile_source(spec.source, SMALL),
        "dim": session.compile_source(spec.source, SMALL_DIM),
    }
    print(f"{'kernel':8s} {'base':>5s} {'+small':>7s} {'w dim':>6s}   paper(base/+small/w dim)")
    for i, paper_row in enumerate(TABLE1_SEISMIC):
        b = progs["base"].kernels[i].registers
        s = progs["small"].kernels[i].registers
        d = progs["dim"].kernels[i].registers
        print(
            f"{paper_row.kernel:8s} {b:5d} {s:7d} {d:6d}   "
            f"{paper_row.base}/{paper_row.small}/{paper_row.dim}"
        )

    # -- Figures 7 and 9: the performance arc ----------------------------
    print("\n=== Figure 7 -> Figure 9: the performance arc ===")
    base_ms = None
    for config in (BASE, SAFARA_ONLY, SMALL, SMALL_DIM, SMALL_DIM_SAFARA):
        prog = session.compile_source(spec.source, config)
        t = session.time_program(prog, dict(spec.env), launches=spec.launches)
        if base_ms is None:
            base_ms = t.total_ms
        marker = ""
        if config is SAFARA_ONLY and t.total_ms > base_ms:
            marker = "   <- the Figure 7 regression (registers exhausted)"
        print(
            f"{config.name:28s} {t.total_ms:10.1f} ms  "
            f"speedup={base_ms / t.total_ms:4.2f}x{marker}"
        )

    # -- the Figure 8 kernel, rendered ------------------------------------
    print("\n=== HOT5 (the paper's Figure 8 kernel), CUDA-like rendering ===")
    fn = build_module(parse_program(spec.source)).functions[0]
    region = fn.regions()[4]  # HOT5
    print(render_cuda(region, fn.symtab, name="seismic_hot5"))


if __name__ == "__main__":
    main()
