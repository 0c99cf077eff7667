"""Tests for the benchmark-regression ledger (`benchmarks/regress.py`)."""

import importlib.util
import json
import pathlib

import pytest

REGRESS = (
    pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "regress.py"
)


@pytest.fixture(scope="module")
def regress():
    spec = importlib.util.spec_from_file_location("regress", REGRESS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def quick_doc(regress):
    return regress.collect(quick=True)


class TestCollect:
    def test_quick_doc_shape(self, quick_doc):
        assert set(quick_doc) == {"version", "quick", "entries", "meta"}
        assert quick_doc["quick"] is True
        assert len(quick_doc["entries"]) == (
            len(quick_doc["meta"]["configs"]) * quick_doc["meta"]["benchmarks"]
        )
        for key, entry in quick_doc["entries"].items():
            assert "|" in key
            assert set(entry) == {
                "model_ms", "max_registers", "speedup_over_base"
            }
            assert entry["model_ms"] > 0
            assert entry["max_registers"] > 0
            assert entry["speedup_over_base"] > 0

    def test_base_cells_have_unit_speedup(self, quick_doc):
        base_cells = [
            e for k, e in quick_doc["entries"].items()
            if k.endswith("|OpenUH(base)")
        ]
        assert base_cells
        assert all(e["speedup_over_base"] == 1.0 for e in base_cells)

    def test_deterministic_across_runs(self, regress, quick_doc):
        again = regress.collect(quick=True)
        assert again["entries"] == quick_doc["entries"]

    def test_committed_ledger_matches_current_code(self, regress, quick_doc):
        """BENCH_obs.json at the repo root is the current code's output."""
        committed = json.loads(
            (REGRESS.parent.parent / "BENCH_obs.json").read_text()
        )
        for key, entry in quick_doc["entries"].items():
            assert committed["entries"][key] == entry, key


class TestCompare:
    def _doc(self, **entry):
        cell = {"model_ms": 100.0, "max_registers": 32,
                "speedup_over_base": 2.0}
        cell.update(entry)
        return {"entries": {"b|cfg": cell}}

    def test_no_regression_within_threshold(self, regress):
        old = self._doc()
        new = self._doc(model_ms=115.0, speedup_over_base=1.7,
                        max_registers=38)
        assert regress.compare(old, new) == []

    def test_model_time_regression_flagged(self, regress):
        problems = regress.compare(self._doc(), self._doc(model_ms=125.0))
        assert len(problems) == 1
        assert "model_ms" in problems[0]

    def test_speedup_drop_flagged(self, regress):
        problems = regress.compare(self._doc(),
                                   self._doc(speedup_over_base=1.5))
        assert len(problems) == 1
        assert "speedup_over_base" in problems[0]

    def test_register_growth_flagged(self, regress):
        problems = regress.compare(self._doc(), self._doc(max_registers=40))
        assert len(problems) == 1
        assert "max_registers" in problems[0]

    def test_improvements_never_flagged(self, regress):
        new = self._doc(model_ms=10.0, speedup_over_base=20.0,
                        max_registers=8)
        assert regress.compare(self._doc(), new) == []

    def test_new_and_removed_cells_ignored(self, regress):
        old = {"entries": {"gone|cfg": {"model_ms": 1.0}}}
        assert regress.compare(old, self._doc()) == []


#: Canned wall-clock rows with the fields ``main`` reports.  The real
#: collectors run in ``TestCollect``, the row tests below and CI's regress
#: step; ``TestMain`` checks only what ``main`` does with their results.
STUB_ROWS = {
    "serve": {"warm_compile_ms": 8.0, "cold_compile_ms": 230.0, "disk_hits": 5},
    "tune": {
        "benchmark": "355.seismic", "tuned_ms": 1.0, "default_ms": 1.04,
        "speedup_over_default": 1.04, "trials": 12, "warm_disk_hits": 12,
    },
    "esat": {
        "register_wins": ["BT"], "kernels": {"BT": {}},
        "geomean_speedup": 1.03, "warm_disk_hits": 12,
    },
    "hotpath": {
        "warm_compile_p50_ms": 0.03, "codegen_speedup_x": 10.0,
        "benchmarks": ["BT"],
    },
    "slo": {"completed": 30, "offered_rps": 25.0, "warm_hit_rate": 1.0, "p99_ms": 10.0},
    "fleet": {"placements": {"BT": {"arch": "cdna2-mi250"}}},
    "cluster": {
        "steady": {"completed": 30, "balance_coefficient": 1.0, "p99_ms": 50.0},
        "churn": {"warm_after_restart": 1.0},
        "hedge": {"hedge_wins": 3, "hedges": 3},
    },
}


@pytest.fixture
def stub_rows(regress, monkeypatch):
    for name, row in STUB_ROWS.items():
        monkeypatch.setattr(regress, f"collect_{name}", lambda row=row: dict(row))
        monkeypatch.setattr(regress, f"check_{name}", lambda row: [])


@pytest.mark.usefixtures("stub_rows")
class TestMain:
    def test_baseline_then_clean_rerun(self, regress, tmp_path, capsys):
        ledger = tmp_path / "ledger.json"
        assert regress.main(["--quick", "--output", str(ledger)]) == 0
        assert ledger.exists()
        assert regress.main(["--quick", "--output", str(ledger)]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_regression_fails_and_preserves_ledger(self, regress, tmp_path,
                                                   capsys):
        ledger = tmp_path / "ledger.json"
        assert regress.main(["--quick", "--output", str(ledger)]) == 0
        doc = json.loads(ledger.read_text())
        # Shrink a recorded model time so the (unchanged) new run looks
        # like a >20% slowdown against it.
        key = next(iter(doc["entries"]))
        doc["entries"][key]["model_ms"] /= 2.0
        ledger.write_text(json.dumps(doc))
        capsys.readouterr()
        assert regress.main(["--quick", "--output", str(ledger)]) == 1
        err = capsys.readouterr().err
        assert "model_ms regressed" in err
        assert json.loads(ledger.read_text())["entries"][key]["model_ms"] == (
            doc["entries"][key]["model_ms"]
        ), "a failing run must not rewrite the ledger"

    def test_partial_run_merges_into_existing_ledger(self, regress, tmp_path):
        ledger = tmp_path / "ledger.json"
        seed = {
            "version": 1,
            "entries": {"other|cfg": {"model_ms": 1.0, "max_registers": 2,
                                      "speedup_over_base": 1.0}},
            "meta": {},
        }
        ledger.write_text(json.dumps(seed))
        assert regress.main(["--quick", "--output", str(ledger)]) == 0
        merged = json.loads(ledger.read_text())
        assert "other|cfg" in merged["entries"]
        assert len(merged["entries"]) > 1

    def test_trace_flag_writes_chrome_trace(self, regress, tmp_path):
        ledger = tmp_path / "ledger.json"
        trace = tmp_path / "trace.json"
        assert regress.main([
            "--quick", "--output", str(ledger), "--trace", str(trace),
        ]) == 0
        doc = json.loads(trace.read_text())
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert "compile.function" in names and "pipeline" in names


class TestServeRow:
    @pytest.fixture(scope="class")
    def serve_row(self, regress):
        return regress.collect_serve()

    def test_row_gates_pass(self, regress, serve_row):
        assert regress.check_serve(serve_row) == []

    def test_warm_restart_reads_only_the_verdict(self, serve_row):
        assert serve_row["warm_backend_compilations"] == 0
        assert serve_row["disk_hits"] == len(serve_row["benchmarks"])
        assert serve_row["warm_timing_walks"] == 0
        assert serve_row["warm_detail_loads"] == 0
        assert serve_row["warm_model_ms"] == serve_row["cold_model_ms"]
        assert set(serve_row["cold_model_ms"]) == set(serve_row["benchmarks"])

    def test_check_serve_flags_each_violation(self, regress, serve_row):
        walked = dict(serve_row, warm_timing_walks=2)
        assert any("walked the VIR" in p for p in regress.check_serve(walked))
        loaded = dict(serve_row, warm_detail_loads=1)
        assert any("detail sections" in p for p in regress.check_serve(loaded))
        name = serve_row["benchmarks"][0]
        drifted = dict(
            serve_row,
            warm_model_ms={**serve_row["warm_model_ms"], name: -1.0},
        )
        assert any(name in p for p in regress.check_serve(drifted))
        backend = dict(serve_row, warm_backend_compilations=3)
        assert any("feedback loop" in p for p in regress.check_serve(backend))
        missed = dict(serve_row, disk_hits=0)
        assert any("hit the disk cache" in p for p in regress.check_serve(missed))


class TestSloRow:
    @pytest.fixture(scope="class")
    def slo_row(self, regress):
        return regress.collect_slo()

    def test_row_gates_pass(self, regress, slo_row):
        assert regress.check_slo(slo_row) == []

    def test_row_is_coordinated_omission_safe(self, slo_row):
        assert slo_row["latency_basis"] == "scheduled_arrival"
        assert slo_row["coordinated_omission_safe"] is True

    def test_warm_window_hits_the_cache(self, slo_row):
        assert slo_row["error_rate"] == 0.0
        assert slo_row["warm_hit_rate"] >= 0.9
        assert slo_row["completed"] == slo_row["scheduled"]

    def test_check_slo_flags_each_violation(self, regress, slo_row):
        errored = dict(slo_row, error_rate=0.1)
        assert any("error rate" in p for p in regress.check_slo(errored))
        cold = dict(slo_row, warm_hit_rate=0.5)
        assert any("hit rate" in p for p in regress.check_slo(cold))
        slow = dict(slo_row, p99_ms=regress.SLO_P99_MS * 2)
        assert any("p99" in p for p in regress.check_slo(slow))
        closed_loop = dict(slo_row, latency_basis="send_time")
        assert any(
            "coordinated omission" in p
            for p in regress.check_slo(closed_loop)
        )
        lost = dict(slo_row, completed=slo_row["scheduled"] - 1)
        assert any("scheduled" in p for p in regress.check_slo(lost))


class TestTuneRow:
    @pytest.fixture(scope="class")
    def tune_row(self, regress):
        return regress.collect_tune()

    def test_row_shape_and_gates_pass(self, regress, tune_row):
        assert tune_row["benchmark"] == "355.seismic"
        assert regress.check_tune(tune_row) == []

    def test_tuned_config_beats_or_matches_the_default(self, tune_row):
        assert tune_row["tuned_ms"] <= tune_row["default_ms"]
        assert tune_row["speedup_over_default"] >= 1.0

    def test_warm_retune_is_compile_free(self, tune_row):
        assert tune_row["warm_compilations"] == 0
        assert tune_row["warm_backend_compilations"] == 0
        assert tune_row["warm_disk_hits"] == tune_row["trials"]
        assert tune_row["warm_scores_match"] is True

    def test_check_tune_flags_each_violation(self, regress, tune_row):
        slower = dict(tune_row, tuned_ms=tune_row["default_ms"] * 2)
        assert any("slower" in p for p in regress.check_tune(slower))
        recompiled = dict(tune_row, warm_compilations=3)
        assert any("compiled 3" in p for p in regress.check_tune(recompiled))
        backend = dict(tune_row, warm_backend_compilations=7)
        assert any("backend" in p for p in regress.check_tune(backend))
        missed = dict(tune_row, warm_disk_hits=tune_row["trials"] - 1)
        assert any("disk cache" in p for p in regress.check_tune(missed))
        rescored = dict(tune_row, warm_scores_match=False)
        assert any("differ" in p for p in regress.check_tune(rescored))
