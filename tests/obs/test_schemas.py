"""Golden-schema tests: the JSON surfaces other tools join on.

`--stats`, `--trace`, and `CompilerSession.metrics` are machine-readable
contracts — key sets and types are pinned here so downstream consumers
(the regression ledger, trace viewers, dashboards) don't silently break.
"""

import json

import pytest

from repro.cli import main
from repro.compiler.options import BASE, SMALL_DIM_SAFARA
from repro.compiler.session import CompileJob, CompilerSession
from repro.obs.chrome import chrome_trace
from repro.obs.tracer import Tracer

SRC = """
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

STATS_KEYS = {
    "compilations", "timings", "feedback_optimizations",
    "pass_totals", "traces", "execution", "cache",
}
EXECUTION_KEYS = {
    "executions", "codegen", "scalar_fallbacks",
    "scalar_requested", "kernels",
}
CACHE_KEYS = {"entries", "maxsize", "hits", "misses", "evictions", "hit_rate"}
TRACE_KEYS = {"function", "config", "cache_key", "wall_ms", "regions"}
PASS_KEYS = {
    "pass", "ran", "wall_ms", "ir_before", "ir_after", "ir_delta",
    "registers_before", "registers_after", "register_delta",
    "backend_compilations",
}


@pytest.fixture
def session():
    s = CompilerSession()
    s.compile_source(SRC, BASE)
    s.compile_source(SRC, SMALL_DIM_SAFARA)
    s.compile_source(SRC, SMALL_DIM_SAFARA)  # cache hit
    return s


class TestStatsSchema:
    def test_top_level_keys(self, session):
        d = json.loads(json.dumps(session.stats_dict()))
        assert set(d) == STATS_KEYS
        assert set(d["execution"]) == EXECUTION_KEYS
        assert set(d["cache"]) == CACHE_KEYS

    def test_cache_counters_exposed(self, session):
        cache = session.stats_dict()["cache"]
        assert cache["misses"] == 2
        assert cache["hits"] == 1
        assert cache["evictions"] == 0
        assert isinstance(cache["hit_rate"], float)

    def test_trace_entries_carry_cache_keys_for_joining(self, session):
        d = session.stats_dict()
        keys = [t["cache_key"] for t in d["traces"]]
        assert all(isinstance(k, str) and len(k) == 64 for k in keys)
        # The join: each trace's key is exactly the CompileJob's cache key.
        expected = {
            CompileJob(source=SRC, config=cfg).key()
            for cfg in (BASE, SMALL_DIM_SAFARA)
        }
        assert set(keys) == expected
        assert session.cache.peek(keys[0])

    def test_trace_and_pass_shapes(self, session):
        trace = session.stats_dict()["traces"][0]
        assert set(trace) == TRACE_KEYS
        region = trace["regions"][0]
        assert set(region) == {"kernel", "wall_ms", "passes"}
        for p in region["passes"]:
            assert set(p) == PASS_KEYS
            assert isinstance(p["ran"], bool)
            assert isinstance(p["wall_ms"], float)

    def test_metrics_dict_types(self, session):
        d = json.loads(json.dumps(session.metrics.as_dict()))
        assert d, "metrics registry must not be empty after a compile"
        for name, entry in d.items():
            assert entry["type"] in ("counter", "gauge", "histogram"), name
            if entry["type"] == "histogram":
                assert {"count", "sum", "mean", "buckets"} <= set(entry)
                assert "le_inf" in entry["buckets"]
            else:
                assert isinstance(entry["value"], (int, float))

    def test_cli_stats_flag_round_trips(self, tmp_path, capsys):
        path = tmp_path / "demo.acc"
        path.write_text(SRC)
        assert main(["compile", str(path), "--stats"]) == 0
        out = capsys.readouterr().out
        d = json.loads(out[out.index("{"):])
        assert set(d) == STATS_KEYS


class TestChromeTraceSchema:
    def _trace(self):
        tracer = Tracer()
        with tracer.activate():
            CompilerSession().compile_source(SRC, SMALL_DIM_SAFARA)
        return chrome_trace(tracer)

    def test_document_shape(self):
        doc = json.loads(json.dumps(self._trace()))
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["producer"] == "repro.obs"
        assert doc["otherData"]["dropped"] == 0

    def test_event_fields_are_perfetto_valid(self):
        events = self._trace()["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        completes = [e for e in events if e["ph"] == "X"]
        assert metas and completes
        assert {m["name"] for m in metas} == {"process_name", "thread_name"}
        for e in completes:
            assert set(e) == {"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"}
            assert e["pid"] == 1
            assert isinstance(e["tid"], int)
            assert e["ts"] >= 0 and e["dur"] >= 0

    def test_expected_span_names_present(self):
        names = {e["name"] for e in self._trace()["traceEvents"]
                 if e["ph"] == "X"}
        assert {
            "parse", "lex", "compile", "compile.function", "cache.lookup",
            "pipeline", "pass:safara", "safara.iteration", "ptxas", "codegen",
        } <= names

    def test_one_ptxas_span_per_feedback_iteration(self):
        events = [e for e in self._trace()["traceEvents"] if e["ph"] == "X"]
        ptxas = [e for e in events if e["name"] == "ptxas"]
        safara_pass = next(e for e in events if e["name"] == "pass:safara")
        assert len(ptxas) == safara_pass["args"]["backend_compilations"]
        assert [e["args"]["iteration"] for e in ptxas] == list(range(len(ptxas)))

    def test_nesting_is_monotonically_consistent(self):
        # On each thread, any two complete events either nest fully or are
        # disjoint — partial overlap would render as garbage in Perfetto.
        events = [e for e in self._trace()["traceEvents"] if e["ph"] == "X"]
        by_tid = {}
        for e in events:
            by_tid.setdefault(e["tid"], []).append(e)
        for tid_events in by_tid.values():
            for a in tid_events:
                for b in tid_events:
                    if a is b:
                        continue
                    a0, a1 = a["ts"], a["ts"] + a["dur"]
                    b0, b1 = b["ts"], b["ts"] + b["dur"]
                    overlap = max(a0, b0) < min(a1, b1)
                    nested = (a0 <= b0 and b1 <= a1) or (b0 <= a0 and a1 <= b1)
                    assert not overlap or nested, (a["name"], b["name"])

    def test_parents_precede_children(self):
        events = [e for e in self._trace()["traceEvents"] if e["ph"] == "X"]
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts)
        pipeline = next(e for e in events if e["name"] == "pipeline")
        safara = next(e for e in events if e["name"] == "pass:safara")
        assert pipeline["ts"] <= safara["ts"]
        assert safara["ts"] + safara["dur"] <= pipeline["ts"] + pipeline["dur"] + 1e-6
