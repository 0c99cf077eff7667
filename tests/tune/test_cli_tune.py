"""The ``repro tune`` command: text output, the golden ``--json`` schema,
trace export, and error handling."""

import json

import pytest

from repro import cli
from repro.cli import main
from repro.tune import RESULT_VERSION

DEMO = """
kernel demo(const double u[1:nz][1:ny][1:nx], double out[1:nz][1:ny][1:nx],
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

ENV_ARGS = ["--env", "nx=32", "--env", "ny=16", "--env", "nz=8"]

#: The golden schema of ``repro tune --json``: exact key sets, per level.
GOLDEN_TOP = {
    "version", "strategy", "budget", "space", "reference", "best",
    "speedup_over_reference", "per_arch_best", "trials",
}
GOLDEN_SPACE = {"size", "unique", "pruned"}
GOLDEN_TRIAL = {"point", "config", "model_ms", "max_registers", "min_occupancy"}
GOLDEN_POINT = {
    "register_limit", "safara", "safara_max_candidates",
    "honor_small", "honor_dim", "unroll_factor", "arch",
    "saturate", "esat_weights",
}


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.acc"
    path.write_text(DEMO)
    return str(path)


class TestTextOutput:
    def test_reports_search_reference_best_speedup(self, demo_file, capsys):
        assert main(["tune", demo_file, *ENV_ARGS, "--budget", "4"]) == 0
        out = capsys.readouterr().out
        assert "tune: beam searched" in out
        assert "reference" in out
        assert "best" in out
        assert "speedup over reference:" in out

    def test_env_is_required(self, demo_file):
        with pytest.raises(SystemExit, match="--env"):
            main(["tune", demo_file])

    def test_unknown_config_rejected(self, demo_file):
        with pytest.raises(SystemExit, match="unknown config"):
            main(["tune", demo_file, *ENV_ARGS, "--config", "zzz"])

    def test_strategy_choices_enforced(self, demo_file, capsys):
        with pytest.raises(SystemExit):
            main(["tune", demo_file, *ENV_ARGS, "--strategy", "zzz"])


class TestJsonGoldenSchema:
    def test_exact_key_sets_at_every_level(self, demo_file, capsys):
        assert main(
            ["tune", demo_file, *ENV_ARGS, "--strategy", "exhaustive",
             "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == GOLDEN_TOP
        assert doc["version"] == RESULT_VERSION == 3
        assert set(doc["space"]) == GOLDEN_SPACE
        assert doc["trials"], "at least the reference must be scored"
        for trial in [doc["reference"], doc["best"], *doc["trials"]]:
            assert set(trial) == GOLDEN_TRIAL
            assert set(trial["point"]) == GOLDEN_POINT
        assert doc["speedup_over_reference"] >= 1.0
        assert len(doc["trials"]) == doc["space"]["unique"]
        assert doc["space"]["size"] >= doc["space"]["unique"]

    def test_json_is_sorted_and_deterministic(self, demo_file, capsys):
        main(["tune", demo_file, *ENV_ARGS, "--strategy", "exhaustive",
              "--json"])
        first = capsys.readouterr().out
        main(["tune", demo_file, *ENV_ARGS, "--strategy", "exhaustive",
              "--json"])
        second = capsys.readouterr().out
        a, b = json.loads(first), json.loads(second)
        for doc in (a, b):
            del doc["trials"]  # order may differ across thread pools
        assert a == b

    def test_cache_dir_retune_compiles_nothing(
        self, demo_file, tmp_path, capsys, monkeypatch
    ):
        sessions = []

        class Recording(cli.CompilerSession):
            def __init__(self, **kw):
                super().__init__(**kw)
                sessions.append(self)

        monkeypatch.setattr(cli, "CompilerSession", Recording)
        argv = ["tune", demo_file, *ENV_ARGS, "--budget", "2",
                "--cache-dir", str(tmp_path / "cache")]
        main([*argv, "--json"])
        cold = json.loads(capsys.readouterr().out)
        assert sessions[-1].stats.compilations == 2
        main([*argv, "--json"])
        warm = json.loads(capsys.readouterr().out)
        assert sessions[-1].stats.compilations == 0
        assert sessions[-1].disk_cache.hits == 2
        assert warm == cold
        main(argv)
        assert "0 compiled, 0 memory hits, 2 disk hits" in capsys.readouterr().out


class TestTraceExport:
    def test_chrome_trace_contains_tune_trial_spans(
        self, demo_file, tmp_path, capsys
    ):
        trace = tmp_path / "trace.json"
        assert main(
            ["tune", demo_file, *ENV_ARGS, "--strategy", "exhaustive",
             "--json", "--trace", str(trace)]
        ) == 0
        out = capsys.readouterr().out
        doc = json.loads(out[: out.rindex("}") + 1])
        events = json.loads(trace.read_text())["traceEvents"]
        trials = [e for e in events if e["ph"] == "X" and e["name"] == "tune.trial"]
        assert len(trials) == len(doc["trials"])
        assert any(e["name"] == "tune" for e in events if e["ph"] == "X")
