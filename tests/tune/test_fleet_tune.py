"""Cross-arch tuning: the ``arch`` knob axis and per-arch bests.

The acceptance property: ``repro tune --fleet`` on 355.seismic returns a
per-arch best table, and a warm re-tune through the shared ledger
replays every score with zero backend compilations.
"""

import pytest

from repro.compiler import CompilerSession
from repro.errors import ConfigError
from repro.tune import KnobSpace, tune

SRC = """
kernel chain(const double u[1:nz][1:ny][1:nx], double out[1:nz][1:ny][1:nx],
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

ENV = {"nx": 32, "ny": 16, "nz": 8}
FLEET = ["kepler-k20xm", "cdna2-mi250"]

#: Small but live: one cap axis besides the arch axis.
SPACE = KnobSpace(
    register_limits=(None, 32),
    safara=(True,),
    candidate_budgets=(None,),
    unroll_factors=(1,),
)


def run_tune(**kw):
    kw.setdefault("env", ENV)
    kw.setdefault("strategy", "exhaustive")
    kw.setdefault("space", SPACE)
    kw.setdefault("session", CompilerSession())
    return tune(SRC, **kw)


class TestArchAxis:
    def test_fleet_widens_the_space_across_archs(self):
        result = run_tune(archs=FLEET)
        archs = {t.point.arch for t in result.trials}
        # The base arch (kepler) is spelled None; the other is explicit.
        assert archs == {None, "cdna2-mi250"}

    def test_per_arch_best_covers_the_fleet(self):
        result = run_tune(archs=FLEET)
        assert set(result.per_arch_best) == set(FLEET)
        for key, best in result.per_arch_best.items():
            others = [
                t.model_ms
                for t in result.trials
                if (t.point.arch or "kepler-k20xm") == key
            ]
            assert best.model_ms == min(others)

    def test_overall_best_is_the_min_across_archs(self):
        result = run_tune(archs=FLEET)
        assert result.best.model_ms == min(
            t.model_ms for t in result.per_arch_best.values()
        )

    def test_aliases_resolve_and_base_arch_collapses(self):
        # Both spellings of the base arch merge into the None axis value:
        # the fleet degenerates to a single-arch search.
        fleet = run_tune(archs=["kepler", "kepler-k20xm"])
        single = run_tune()
        assert len(fleet.trials) == len(single.trials)
        assert set(fleet.per_arch_best) == {"kepler-k20xm"}

    def test_single_arch_run_reports_one_best(self):
        result = run_tune()
        assert set(result.per_arch_best) == {"kepler-k20xm"}
        assert result.per_arch_best["kepler-k20xm"].model_ms == result.best.model_ms

    def test_unknown_fleet_name_raises(self):
        with pytest.raises(ConfigError, match="unknown GPU arch 'h100'"):
            run_tune(archs=["kepler", "h100"])

    def test_best_config_carries_the_winning_arch(self):
        result = run_tune(archs=FLEET)
        from repro.gpu.arch import arch_key

        winner = min(
            result.per_arch_best.items(), key=lambda kv: kv[1].model_ms
        )[0]
        assert arch_key(result.best_config.arch) == winner


class TestRegisterCapCollapsePerArch:
    def test_cap_deadness_is_arch_dependent(self):
        # A 255 cap equals "no cap" on Kepler (255 hardware max) but is a
        # live constraint on CDNA2 (256 architected VGPRs) — the
        # canonical space must keep the CDNA2 point and merge Kepler's.
        space = KnobSpace(
            register_limits=(None, 255),
            safara=(True,),
            candidate_budgets=(None,),
            unroll_factors=(1,),
        )
        result = run_tune(space=space, archs=FLEET)
        kepler_caps = {
            t.point.register_limit
            for t in result.trials
            if t.point.arch is None
        }
        cdna2_caps = {
            t.point.register_limit
            for t in result.trials
            if t.point.arch == "cdna2-mi250"
        }
        assert kepler_caps == {None}
        assert cdna2_caps == {None, 255}


class TestSeismicFleetWarmRetune:
    """The acceptance run: 355.seismic, two archs, re-tuned from the
    compile disk cache."""

    @pytest.fixture(scope="class")
    def seismic(self):
        from repro.bench import SPEC, load_all

        load_all()
        return SPEC.get("355.seismic")

    def test_cold_then_warm_retune_zero_backend_compilations(
        self, seismic, tmp_path
    ):
        kw = dict(
            env=dict(seismic.env),
            launches=seismic.launches,
            strategy="beam",
            budget=8,
            archs=FLEET,
        )
        cold_session = CompilerSession(cache_dir=tmp_path)
        cold = tune(seismic.source, session=cold_session, **kw)
        assert set(cold.per_arch_best) == set(FLEET)
        assert cold_session.stats.compilations == len(cold.trials) > 0

        warm_session = CompilerSession(cache_dir=tmp_path)
        warm = tune(seismic.source, session=warm_session, **kw)
        assert warm_session.stats.compilations == 0
        assert warm_session.disk_cache.hits == len(cold.trials)
        assert [(t.point, t.model_ms) for t in warm.trials] == [
            (t.point, t.model_ms) for t in cold.trials
        ]
        metric = warm_session.metrics.get(
            "pipeline.pass.safara.backend_compilations"
        )
        assert metric is None or int(metric.value) == 0
        assert warm.best.model_ms == cold.best.model_ms
        assert {k: t.model_ms for k, t in warm.per_arch_best.items()} == {
            k: t.model_ms for k, t in cold.per_arch_best.items()
        }
