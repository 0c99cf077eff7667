"""End-to-end tuner behavior: search, warm starts from the compile disk
cache, observability."""

import pytest

import repro
from repro.compiler import BASE, CompilerSession
from repro.errors import TuneError
from repro.obs.tracer import Tracer
from repro.tune import KnobSpace, Tuner, tune

SRC = """
kernel chain(const double u[1:nz][1:ny][1:nx], double out[1:nz][1:ny][1:nx],
             int nx, int ny, int nz) {
  #pragma acc kernels loop gang vector(2) small(u, out) dim((1:nz,1:ny,1:nx)(u, out))
  for (j = 1; j < ny; j++) {
    #pragma acc loop gang vector(64)
    for (i = 1; i < nx; i++) {
      #pragma acc loop seq
      for (k = 1; k < nz; k++) {
        out[k][j][i] = u[k][j][i] + u[k-1][j][i] + u[k-2][j][i];
      }
    }
  }
}
"""

ENV = {"nx": 32, "ny": 16, "nz": 8}

#: A small but live space: 2 caps x safara on/off x 2 clause axes.
SPACE = KnobSpace(
    register_limits=(None, 32),
    candidate_budgets=(None,),
    unroll_factors=(1,),
)


def run_tune(**kw):
    kw.setdefault("env", ENV)
    kw.setdefault("strategy", "exhaustive")
    kw.setdefault("space", SPACE)
    kw.setdefault("session", CompilerSession())
    return tune(SRC, **kw)


class TestSearch:
    def test_best_never_worse_than_reference(self):
        result = run_tune()
        assert result.best.model_ms <= result.reference.model_ms
        assert result.speedup_over_reference >= 1.0

    def test_exhaustive_scores_every_unique_point(self):
        result = run_tune()
        assert len(result.trials) == result.unique_points
        assert len({t.point.key() for t in result.trials}) == len(result.trials)
        assert result.pruned == result.space_size - result.unique_points

    def test_reference_scored_first(self):
        result = run_tune()
        assert result.trials[0].point.key() == result.reference.point.key()

    def test_budget_one_returns_the_reference(self):
        result = run_tune(budget=1)
        assert len(result.trials) == 1
        assert result.best.point.key() == result.reference.point.key()

    def test_best_config_is_derived_from_base(self):
        result = run_tune()
        assert result.best_config.arch is BASE.arch
        assert result.best_config.register_limit == result.best.point.register_limit

    def test_strategies_agree_on_this_tiny_space(self):
        exhaustive = run_tune()
        beam = run_tune(strategy="beam")
        assert beam.best.model_ms == exhaustive.best.model_ms


class TestValidation:
    def test_env_is_required(self):
        with pytest.raises(TuneError, match="env"):
            Tuner(SRC, env=None)

    def test_budget_must_admit_the_reference(self):
        with pytest.raises(TuneError, match="budget"):
            Tuner(SRC, env=ENV, budget=0)

    def test_unknown_strategy_is_a_tune_error(self):
        with pytest.raises(TuneError, match="unknown strategy"):
            run_tune(strategy="zzz")


def scores(result):
    return [
        (t.point.key(), t.model_ms, t.max_registers, t.min_occupancy)
        for t in result.trials
    ]


class TestLedgerWarmStart:
    """A tune persists through its session's compile disk cache: a
    re-tune in a fresh session over the same directory compiles nothing."""

    def test_warm_retune_does_zero_backend_compilations(self, tmp_path):
        cold_session = CompilerSession(cache_dir=tmp_path)
        cold = run_tune(session=cold_session)
        assert cold_session.stats.compilations == cold.unique_points

        # A fresh session: an empty memory cache over the same directory.
        session = CompilerSession(cache_dir=tmp_path)
        warm = run_tune(session=session)
        assert session.stats.compilations == 0
        assert session.disk_cache.hits == warm.unique_points
        safara = session.metrics.get("pipeline.pass.safara.backend_compilations")
        assert safara is None or safara.value == 0
        assert scores(warm) == scores(cold)
        assert warm.best.point == cold.best.point

    def test_partial_run_resumes_where_it_stopped(self, tmp_path):
        partial = run_tune(session=CompilerSession(cache_dir=tmp_path), budget=2)
        assert len(partial.trials) == 2
        session = CompilerSession(cache_dir=tmp_path)
        resumed = run_tune(session=session)
        assert session.disk_cache.hits == 2
        assert session.stats.compilations == resumed.unique_points - 2

    def test_task_isolation(self, tmp_path):
        """Another env reuses the compiled programs (a compile does not
        read problem sizes) but scores every trial at its own env."""
        run_tune(session=CompilerSession(cache_dir=tmp_path))
        other_env = {"nx": 64, "ny": 16, "nz": 8}
        session = CompilerSession(cache_dir=tmp_path)
        other = run_tune(session=session, env=other_env)
        assert session.stats.compilations == 0
        fresh = run_tune(
            session=CompilerSession(cache_dir=tmp_path / "empty"), env=other_env
        )
        assert scores(other) == scores(fresh)


class TestObservability:
    def test_every_trial_is_a_span(self):
        tracer = Tracer(enabled=True)
        with tracer.activate():
            result = run_tune()
        names = [s.name for s in tracer.spans]
        assert names.count("tune") == 1
        assert names.count("tune.trial") == len(result.trials)

    def test_warm_retune_trials_are_spans(self, tmp_path):
        run_tune(session=CompilerSession(cache_dir=tmp_path))
        tracer = Tracer(enabled=True)
        with tracer.activate():
            warm = run_tune(session=CompilerSession(cache_dir=tmp_path))
        trials = [s for s in tracer.spans if s.name == "tune.trial"]
        assert len(trials) == warm.unique_points
        assert {s.args["point"] for s in trials} == {
            t.point.key() for t in warm.trials
        }

    def test_metrics_account_for_the_run(self):
        session = CompilerSession()
        result = run_tune(session=session)
        m = session.metrics
        assert m.get("tune.trials").value == len(result.trials)
        assert m.get("tune.trial_ms").count == len(result.trials)
        assert m.get("tune.pruned").value == result.pruned
        assert m.get("tune.best_model_ms").value == result.best.model_ms
        assert m.get("tune.batches").value >= 1


class TestFacade:
    def test_repro_tune_is_the_function(self):
        assert repro.tune is tune

    def test_tune_submodule_stays_importable(self):
        from repro.tune import tune as inner

        assert inner is tune
