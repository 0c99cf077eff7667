"""Behavioural tests for SAFARA (paper Section III-B)."""

import numpy as np
import pytest

from repro.analysis import GroupKind
from repro.compiler import default_session
from repro.feedback import FeedbackCompiler
from repro.gpu.arch import FERMI_LIKE, KEPLER_K20XM
from repro.ir import build_module, format_function
from repro.lang import parse_program
from repro.transforms import apply_safara, collect_candidates

SESSION = default_session()

SEISMIC_SRC = """
kernel seismic(const double vz_1[1:nz][1:ny][1:nx], const double vz_2[1:nz][1:ny][1:nx],
               const double vz_3[1:nz][1:ny][1:nx], double out[1:nz][1:ny][1:nx],
               double h, int nx, int ny, int nz) {
  #pragma acc kernels loop gang vector(2)
  for (j = 2; j < ny; j++) {
    #pragma acc loop gang vector(64)
    for (i = 1; i < nx; i++) {
      #pragma acc loop seq
      for (k = 2; k < nz; k++) {
        out[k][j][i] = (vz_1[k][j][i] - vz_1[k-1][j][i]) / h
                     + (vz_2[k][j][i] - vz_2[k-1][j][i]) / h
                     + (vz_3[k][j][i] - vz_3[k-1][j][i]) / h;
      }
    }
  }
}
"""

PARALLEL_REUSE_SRC = """
kernel fig3(double a[sz], const double b[sz], int SIZE, int sz) {
  #pragma acc kernels loop gang vector(128)
  for (i = 1; i <= SIZE; i++) {
    a[i] = (b[i] + b[i+1]) / 2;
  }
}
"""


def lower(src):
    return build_module(parse_program(src)).functions[0]


class TestParallelGuard:
    """Limitation 1 of Carr-Kennedy: SAFARA must never sequentialise a
    parallel loop (Figures 3–4)."""

    def test_inter_group_on_parallel_loop_not_candidate(self):
        fn = lower(PARALLEL_REUSE_SRC)
        region = fn.regions()[0]
        cands = collect_candidates(region)
        assert cands == []

    def test_loop_stays_parallel_after_safara(self):
        fn = lower(PARALLEL_REUSE_SRC)
        region = fn.regions()[0]
        report, _ = SESSION.optimize_region(region, fn.symtab)
        loop = region.body[0]
        assert loop.is_parallel
        assert not loop.sequentialized
        assert report.groups_replaced == 0

    def test_seq_loop_inter_groups_are_candidates(self):
        fn = lower(SEISMIC_SRC)
        cands = collect_candidates(fn.regions()[0])
        kinds = {c.group.kind for c in cands}
        assert GroupKind.INTER in kinds
        assert len(cands) == 3  # the three vz chains

    def test_intra_groups_allowed_on_parallel_loops(self):
        src = """
        kernel k(double a[n], const double b[n][8], int n) {
          #pragma acc kernels loop gang vector(64)
          for (i = 0; i < n; i++) {
            a[i] = b[i][0] * b[i][0] + b[i][0];
          }
        }
        """
        fn = lower(src)
        cands = collect_candidates(fn.regions()[0])
        assert len(cands) == 1
        assert cands[0].group.kind is GroupKind.INTRA


class TestFeedbackLoop:
    def test_feedback_invoked_each_iteration(self):
        fn = lower(SEISMIC_SRC)
        region = fn.regions()[0]
        report, feedback = SESSION.optimize_region(region, fn.symtab)
        # At least: initial compile + post-replacement convergence check.
        assert feedback.compilations >= 2
        assert feedback.compilations == len(feedback.history)

    def test_register_budget_respected(self):
        fn = lower(SEISMIC_SRC)
        region = fn.regions()[0]
        report, feedback = SESSION.optimize_region(region, fn.symtab, register_limit=64)
        assert report.final_registers <= 64

    def test_tight_limit_blocks_replacement(self):
        fn = lower(SEISMIC_SRC)
        region = fn.regions()[0]
        feedback = FeedbackCompiler(symtab=fn.symtab)
        first = feedback(region).registers
        fn2 = lower(SEISMIC_SRC)
        region2 = fn2.regions()[0]
        report, _ = SESSION.optimize_region(region2, fn2.symtab, register_limit=first)
        # available = 0 -> nothing replaced.
        assert report.groups_replaced == 0

    def test_replacements_recorded_per_iteration(self):
        fn = lower(SEISMIC_SRC)
        region = fn.regions()[0]
        report, _ = SESSION.optimize_region(region, fn.symtab)
        assert report.groups_replaced == 3
        assert report.iterations
        assert all(it.applied for it in report.iterations)

    def test_registers_grow_after_replacement(self):
        fn = lower(SEISMIC_SRC)
        region = fn.regions()[0]
        report, feedback = SESSION.optimize_region(region, fn.symtab)
        assert feedback.history[-1].registers >= feedback.history[0].registers

    def test_partial_budget_replaces_highest_cost_first(self):
        fn = lower(SEISMIC_SRC)
        region = fn.regions()[0]
        feedback = FeedbackCompiler(symtab=fn.symtab)
        base = feedback(region).registers
        fn2 = lower(SEISMIC_SRC)
        region2 = fn2.regions()[0]
        # Room for exactly one double-width rotating pair (2 temps x 2).
        report, _ = SESSION.optimize_region(
            region2, fn2.symtab, register_limit=base + 4
        )
        assert report.groups_replaced == 1

    def test_max_iterations_terminates(self):
        fn = lower(SEISMIC_SRC)
        region = fn.regions()[0]
        feedback = FeedbackCompiler(symtab=fn.symtab)
        report = apply_safara(region, fn.symtab, feedback, max_iterations=1)
        assert len(report.iterations) <= 1


class TestSemanticsPreserved:
    def test_safara_preserves_results(self, equivalence):
        def xform(fn):
            region = fn.regions()[0]
            SESSION.optimize_region(region, fn.symtab)

        stats_orig, stats_xform, fn = equivalence(
            SEISMIC_SRC,
            {"nx": 9, "ny": 7, "nz": 6, "h": 0.5},
            xform,
        )
        assert stats_xform.loads < stats_orig.loads

    def test_readonly_cache_toggle_changes_costs_not_results(self, equivalence):
        def xform(fn):
            region = fn.regions()[0]
            SESSION.optimize_region(region, fn.symtab, arch=FERMI_LIKE)

        equivalence(SEISMIC_SRC, {"nx": 9, "ny": 7, "nz": 6, "h": 0.5}, xform)


class TestConvergedReason:
    def test_reasons(self):
        fn = lower(SEISMIC_SRC)
        region = fn.regions()[0]
        report, _ = SESSION.optimize_region(region, fn.symtab)
        assert report.converged_reason in (
            "registers-saturated",
            "candidates-exhausted",
            "no-candidates",
        )
