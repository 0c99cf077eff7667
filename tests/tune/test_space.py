"""The knob space: points, clause inference, canonicalization, pruning.

The pruning-soundness property test at the bottom is the load-bearing
one: every collapse rule in :func:`repro.tune.space.canonicalize` claims
two configurations compile to bit-identical programs; here we *score*
both on the paper's table kernels and demand equal modeled times, so
pruning can never discard the true best configuration.
"""

import pytest

from repro.compiler import BASE, CompilerSession
from repro.tune import (
    AXES,
    KnobSpace,
    TrialPoint,
    Tuner,
    canonicalize,
    default_space,
    prune_points,
    safara_candidate_ceiling,
    source_uses_clauses,
)

CLAUSED = """
kernel k(const double u[1:nz][1:ny][1:nx], double out[1:nz][1:ny][1:nx],
         int nx, int ny, int nz) {
  #pragma acc kernels loop gang vector(2) small(u, out) dim((1:nz,1:ny,1:nx)(u, out))
  for (j = 1; j < ny; j++) {
    #pragma acc loop gang vector(64)
    for (i = 1; i < nx; i++) {
      #pragma acc loop seq
      for (k = 1; k < nz; k++) {
        out[k][j][i] = u[k][j][i] + u[k-1][j][i];
      }
    }
  }
}
"""

PLAIN = CLAUSED.replace(
    " small(u, out) dim((1:nz,1:ny,1:nx)(u, out))", ""
)


class TestTrialPoint:
    def test_key_is_stable_and_total(self):
        p = TrialPoint()
        assert p.key() == "rl=none;safara=1;cand=none;small=1;dim=1;unroll=1"
        q = TrialPoint(register_limit=48, safara_max_candidates=2,
                       honor_small=False, unroll_factor=2)
        assert q.key() == "rl=48;safara=1;cand=2;small=0;dim=1;unroll=2"
        assert p.key() != q.key()

    def test_apply_goes_through_derive(self):
        cfg = TrialPoint(register_limit=48, safara=False).apply(BASE)
        assert cfg.register_limit == 48
        assert cfg.safara is False
        assert cfg.name.startswith("tune(")

    def test_as_dict_round_trips_every_axis(self):
        p = TrialPoint(register_limit=32, safara_max_candidates=4)
        d = p.as_dict()
        assert set(d) == set(AXES)
        assert TrialPoint(**d) == p


class TestClauseInference:
    def test_clauses_detected_on_directive_lines(self):
        assert source_uses_clauses(CLAUSED) == (True, True)
        assert source_uses_clauses(PLAIN) == (False, False)

    def test_subscripts_and_comments_cannot_fake_a_clause(self):
        tricky = PLAIN + "\n// small(u) dim((1:n)(u)) in a comment\n"
        assert source_uses_clauses(tricky) == (False, False)

    def test_default_space_collapses_dead_clause_axes(self):
        space = default_space(PLAIN)
        assert space.honor_small == (False,)
        assert space.honor_dim == (False,)
        full = default_space(CLAUSED)
        assert full.honor_small == (True, False)
        assert full.honor_dim == (True, False)
        assert full.size == 4 * space.size


class TestSpaceEnumeration:
    def test_points_match_size_and_are_unique(self):
        space = KnobSpace()
        points = space.points()
        assert len(points) == space.size
        assert len({p.key() for p in points}) == len(points)

    def test_reference_point_is_the_paper_default(self):
        ref = KnobSpace().reference_point()
        assert ref == TrialPoint()

    def test_reference_respects_collapsed_clause_axes(self):
        ref = default_space(PLAIN).reference_point()
        assert ref.honor_small is False and ref.honor_dim is False


class TestCanonicalize:
    def test_dead_clause_axes_collapse(self):
        p = TrialPoint(honor_small=True, honor_dim=True)
        c = canonicalize(p, uses_small=False, uses_dim=False)
        assert c.honor_small is False and c.honor_dim is False

    def test_budget_dead_without_safara(self):
        p = TrialPoint(safara=False, safara_max_candidates=2)
        c = canonicalize(p, uses_small=True, uses_dim=True)
        assert c.safara_max_candidates is None

    def test_budget_at_ceiling_is_unlimited(self):
        p = TrialPoint(safara_max_candidates=8)
        c = canonicalize(p, uses_small=True, uses_dim=True, candidate_ceiling=8)
        assert c.safara_max_candidates is None
        under = TrialPoint(safara_max_candidates=2)
        assert canonicalize(
            under, uses_small=True, uses_dim=True, candidate_ceiling=8
        ).safara_max_candidates == 2

    def test_budget_collapse_requires_unroll_one(self):
        p = TrialPoint(safara_max_candidates=8, unroll_factor=2)
        c = canonicalize(p, uses_small=True, uses_dim=True, candidate_ceiling=8)
        assert c.safara_max_candidates == 8

    def test_register_cap_at_arch_max_is_uncapped(self):
        p = TrialPoint(register_limit=255)
        c = canonicalize(p, uses_small=True, uses_dim=True, max_register_limit=255)
        assert c.register_limit is None
        kept = TrialPoint(register_limit=64)
        assert canonicalize(
            kept, uses_small=True, uses_dim=True, max_register_limit=255
        ).register_limit == 64

    def test_canonicalize_is_idempotent(self):
        for p in KnobSpace().points():
            c = canonicalize(p, uses_small=False, uses_dim=True,
                             max_register_limit=255, candidate_ceiling=3)
            assert canonicalize(c, uses_small=False, uses_dim=True,
                                max_register_limit=255, candidate_ceiling=3) == c


class TestPrunePoints:
    def test_prune_counts_and_mapping(self):
        points = KnobSpace().points()
        unique, mapping, pruned = prune_points(
            points, uses_small=False, uses_dim=False
        )
        assert pruned == len(points) - len(unique)
        assert set(mapping) == {p.key() for p in points}
        canon_keys = {p.key() for p in unique}
        for rep in mapping.values():
            assert rep.key() in canon_keys

    def test_ceiling_from_the_cost_model(self):
        ceiling = safara_candidate_ceiling(CLAUSED, BASE)
        assert ceiling is not None and ceiling >= 1
        big = TrialPoint(safara_max_candidates=ceiling + 5)
        c = canonicalize(big, uses_small=True, uses_dim=True,
                         candidate_ceiling=ceiling)
        assert c.safara_max_candidates is None


def _score_all(source, spec_env, points, base=BASE):
    """Model-time of each point's config, via one shared session."""
    session = CompilerSession()
    tuner = Tuner(source, env=spec_env, launches=1, base=base, session=session)
    tuner._build_space(None)
    tuner.evaluate(points)
    return {p.key(): tuner.scored[p.key()].model_ms for p in points}


@pytest.mark.parametrize("bench", ["355.seismic", "356.sp"])
class TestPruningSoundness:
    """Property: pruning never discards the true best configuration.

    For the paper's table kernels we score every point of a reduced (but
    rule-covering) knob grid *and* its canonical representative: members
    of one equivalence class must score identically, hence the best over
    the pruned space equals the best over the full space.
    """

    def _space(self, source, base):
        ceiling = safara_candidate_ceiling(source, base)
        uses_small, uses_dim = source_uses_clauses(source)
        arch_max = base.arch.max_registers_per_thread
        return KnobSpace(
            # arch_max exercises the cap collapse; 48 is a live cap.
            register_limits=(None, arch_max, 48),
            safara=(True, False),
            # ceiling + 1 exercises the budget collapse; 1 truncates.
            candidate_budgets=(None, (ceiling or 0) + 1, 1),
            honor_small=(True, False) if uses_small else (False,),
            honor_dim=(True, False) if uses_dim else (False,),
            unroll_factors=(1,),
        )

    def test_pruned_points_score_identically(self, bench):
        from repro.bench import load_all

        SPEC, _ = load_all()
        spec = SPEC.get(bench)
        base = BASE
        space = self._space(spec.source, base)
        points = space.points()
        uses_small, uses_dim = source_uses_clauses(spec.source)
        unique, mapping, pruned = prune_points(
            points,
            uses_small=uses_small,
            uses_dim=uses_dim,
            max_register_limit=base.arch.max_registers_per_thread,
            candidate_ceiling=safara_candidate_ceiling(spec.source, base),
        )
        assert pruned > 0, "the reduced grid must exercise at least one rule"
        scores = _score_all(spec.source, spec.test_env, points + unique, base)
        for point in points:
            rep = mapping[point.key()]
            assert scores[point.key()] == scores[rep.key()], (
                f"{point.key()} scored differently from its representative "
                f"{rep.key()} — pruning would be unsound"
            )
        best_full = min(scores[p.key()] for p in points)
        best_pruned = min(scores[p.key()] for p in unique)
        assert best_pruned == best_full


class TestCeilingOfTheTunedKernel:
    """The candidate-budget collapse reads the kernel being tuned, not the
    source's first kernel."""

    K0 = """
kernel k0(double a[1:n], int n) {
  #pragma acc kernels loop gang vector(64)
  for (i = 1; i < n; i++) { a[i] = 0.0; }
}
"""

    @pytest.fixture(scope="class")
    def olbm(self):
        from repro.bench import load_all

        SPEC, _ = load_all()
        return SPEC.get("304.olbm")

    def test_ceiling_follows_kernel_name(self, olbm):
        from repro.compiler import SMALL_DIM_SAFARA

        alone = safara_candidate_ceiling(olbm.source, SMALL_DIM_SAFARA)
        assert alone == 19
        assert safara_candidate_ceiling(
            self.K0 + olbm.source, SMALL_DIM_SAFARA, kernel_name="olbm"
        ) == alone
        assert safara_candidate_ceiling(self.K0 + olbm.source, SMALL_DIM_SAFARA) == 0

    def test_tuner_prunes_with_the_tuned_kernels_ceiling(self, olbm):
        from repro.compiler import SMALL_DIM_SAFARA

        def build(source, kernel_name=None):
            tuner = Tuner(
                source,
                env=dict(olbm.env),
                base=SMALL_DIM_SAFARA,
                kernel_name=kernel_name,
                session=CompilerSession(),
            )
            tuner._build_space(None)
            return tuner

        alone = build(olbm.source)
        behind_k0 = build(self.K0 + olbm.source, kernel_name="olbm")
        assert behind_k0.ceiling == alone.ceiling == 19
        assert len(behind_k0.points) == len(alone.points) == 80

    def test_each_arch_analyses_a_fresh_clone(self, olbm):
        """The pipeline prefix runs in place; the session's parse must
        stay as parsed, so a second arch sees the same ceiling."""
        from repro.compiler import SMALL_DIM_SAFARA

        session = CompilerSession()
        first = safara_candidate_ceiling(olbm.source, SMALL_DIM_SAFARA, session=session)
        again = safara_candidate_ceiling(olbm.source, SMALL_DIM_SAFARA, session=session)
        assert first == again == 19
        fresh = CompilerSession().function(olbm.source)
        assert repr(session.function(olbm.source).body) == repr(fresh.body)
