"""Tests for the command-line interface."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

REPO = Path(__file__).resolve().parents[2]

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


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.acc"
    path.write_text(DEMO)
    return str(path)


class TestCompileCommand:
    def test_default_configs(self, demo_file, capsys):
        assert main(["compile", demo_file]) == 0
        out = capsys.readouterr().out
        assert "OpenUH(base)" in out
        assert "OpenUH(SAFARA+small+dim)" in out
        assert "ptxas info" in out

    def test_env_enables_timing(self, demo_file, capsys):
        assert main(["compile", demo_file, "--env", "nx=64", "--env", "ny=32", "--env", "nz=16"]) == 0
        out = capsys.readouterr().out
        assert "ms" in out
        assert "occupancy" in out

    def test_explicit_config(self, demo_file, capsys):
        assert main(["compile", demo_file, "--config", "PGI"]) == 0
        out = capsys.readouterr().out
        assert "PGI" in out
        assert "OpenUH(base)" not in out

    def test_unknown_config_rejected(self, demo_file):
        with pytest.raises(SystemExit, match="unknown config"):
            main(["compile", demo_file, "--config", "zzz"])

    def test_bad_env_rejected(self, demo_file):
        with pytest.raises(SystemExit, match="name=value"):
            main(["compile", demo_file, "--env", "oops"])

    def test_dump_vir(self, demo_file, capsys):
        assert main(["compile", demo_file, "--config", "OpenUH(base)", "--dump-vir"]) == 0
        out = capsys.readouterr().out
        assert "loop_begin" in out
        assert "ld_dope" in out

    def test_cuda_rendering(self, demo_file, capsys):
        assert main(["compile", demo_file, "--config", "OpenUH(SAFARA+small+dim)", "--cuda"]) == 0
        out = capsys.readouterr().out
        assert "__global__ void" in out

    def test_trace_writes_chrome_trace(self, demo_file, tmp_path, capsys):
        import json

        trace_path = tmp_path / "trace.json"
        assert main(["compile", demo_file, "--trace", str(trace_path)]) == 0
        assert "trace:" in capsys.readouterr().out
        doc = json.loads(trace_path.read_text())
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"compile", "pipeline", "pass:safara", "ptxas"} <= names


class TestProfileCommand:
    def test_text_report(self, demo_file, capsys):
        assert main(["profile", demo_file]) == 0
        out = capsys.readouterr().out
        assert "== profile: demo" in out
        assert "registers" in out
        assert "memory traffic" in out
        assert "vector planner" in out

    def test_json_report(self, demo_file, capsys):
        import json

        assert main(["profile", demo_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["function"] == "demo"
        assert doc["kernels"][0]["traffic"]

    def test_run_attaches_execution(self, tmp_path, capsys):
        path = tmp_path / "saxpy.acc"
        path.write_text(
            "kernel k(double a[n], const double b[n], int n) {\n"
            "  #pragma acc kernels loop gang vector(64)\n"
            "  for (i = 0; i < n; i++) { a[i] = 2.0 * b[i] + i; }\n"
            "}\n"
        )
        assert main(["profile", str(path), "--run", "--env", "n=16"]) == 0
        assert "execution: executor=" in capsys.readouterr().out

    def test_unknown_config_rejected(self, demo_file):
        with pytest.raises(SystemExit, match="unknown config"):
            main(["profile", demo_file, "--config", "zzz"])


class TestStatsCommand:
    def test_text_output(self, demo_file, capsys):
        assert main(["stats", demo_file]) == 0
        out = capsys.readouterr().out
        assert "session.compilations" in out
        assert "cache.misses" in out

    def test_json_output(self, demo_file, capsys):
        import json

        assert main(["stats", demo_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["session.compilations"]["value"] == 2
        assert doc["cache.misses"]["type"] == "counter"


class TestOtherCommands:
    def test_bench_listing(self, capsys):
        assert main(["bench"]) == 0
        out = capsys.readouterr().out
        assert "355.seismic" in out
        assert "== NAS ==" in out

    def test_microbench(self, capsys):
        assert main(["microbench"]) == 0
        out = capsys.readouterr().out
        assert "uncoalesced" in out

    def test_experiments_subset(self, capsys):
        assert main(["experiments", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "HOT1" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit, match="unknown experiment"):
            main(["experiments", "fig99"])


class TestUnreadableSource:
    @pytest.mark.parametrize("command", ["compile", "profile", "stats", "tune", "submit"])
    def test_missing_file_is_a_usage_error(self, command, tmp_path):
        missing = tmp_path / "nofile.acc"
        with pytest.raises(SystemExit) as exc:
            main([command, str(missing)])
        assert exc.value.code == f"cannot read {missing}: No such file or directory"

    def test_undecodable_file_is_a_usage_error(self, tmp_path):
        path = tmp_path / "binary.acc"
        path.write_bytes(b"\xff\xfe kernel")
        with pytest.raises(SystemExit) as exc:
            main(["compile", str(path)])
        assert exc.value.code.startswith(f"cannot read {path}: 'utf-8' codec")

    def test_missing_file_exits_1_with_one_line(self, tmp_path):
        missing = tmp_path / "nofile.acc"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "compile", str(missing)],
            capture_output=True,
            text=True,
            timeout=120,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            f"cannot read {missing}: No such file or directory"
        ]


class TestSourceErrors:
    """A MiniACC syntax error is one ``path:line:col: message`` line."""

    BAD = "kernel oops( {\n"
    MESSAGE = "{path}:1:14: expected type name, found '{{'"

    @pytest.mark.parametrize(
        "command", [["compile"], ["profile"], ["stats"], ["tune", "--env", "n=4"]]
    )
    def test_syntax_error_names_the_file(self, command, tmp_path):
        path = tmp_path / "bad.acc"
        path.write_text(self.BAD)
        with pytest.raises(SystemExit) as exc:
            main([command[0], str(path), *command[1:]])
        assert exc.value.code == self.MESSAGE.format(path=path)

    def test_syntax_error_exits_1_with_one_line(self, tmp_path):
        path = tmp_path / "bad.acc"
        path.write_text(self.BAD)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "compile", str(path)],
            capture_output=True,
            text=True,
            timeout=120,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [self.MESSAGE.format(path=path)]
