"""Request tracing through the broker: trace_id propagation, the
per-request span tree, the ``trace`` serve op, flight-recorder retention
under serving load, and the ``watch`` telemetry snapshot.

The acceptance property (in-process half; the daemon half lives in
``test_socket.py``): one served ``run`` request produces one connected,
Perfetto-loadable trace whose ``queue.wait``, ``placement``, ``compile``
and ``execute`` spans are all correlated by the request's ``trace_id``.
"""

import json

import pytest

from repro.obs.flight import span_tree
from repro.serve.broker import Broker, BrokerConfig

from .tiers import TIERS, front_door

FLEET = ("kepler-k20xm", "cdna2-mi250")

SRC = """
kernel axpy(const double x[1:n], double y[1:n], int n) {
  #pragma acc kernels loop gang vector(64)
  for (i = 1; i < n; i++) {
    y[i] = x[i] + y[i];
  }
}
"""


def make_broker(**overrides) -> Broker:
    defaults = dict(workers=2, fleet=FLEET)
    defaults.update(overrides)
    return Broker(BrokerConfig(**defaults))


def run_request(request_id=1, **fields) -> dict:
    return {
        "id": request_id,
        "op": "run",
        "source": SRC,
        "env": {"n": 64},
        **fields,
    }


class TestTraceIdEcho:
    def test_client_supplied_id_echoed_on_success(self):
        with make_broker() as broker:
            response = broker.handle(run_request(trace_id="req-abc"))
            assert response["ok"]
            assert response["trace_id"] == "req-abc"

    def test_generated_when_absent(self):
        with make_broker() as broker:
            r1 = broker.handle(run_request(1))
            r2 = broker.handle(run_request(2))
            assert r1["trace_id"] and r2["trace_id"]
            assert r1["trace_id"] != r2["trace_id"]

    def test_echoed_on_handler_errors(self):
        with make_broker() as broker:
            response = broker.handle(
                {"id": 1, "op": "compile", "source": "kernel oops( {",
                 "trace_id": "bad-src"}
            )
            assert response["ok"] is False
            assert response["trace_id"] == "bad-src"

    def test_echoed_on_admission_rejection(self):
        for tier in TIERS:
            with front_door(tier, fleet=FLEET) as door:
                response = door.handle(
                    {"id": 1, "op": "frobnicate", "trace_id": "rej-1"}
                )
                assert response["ok"] is False
                assert response["error"]["code"] == "bad_request", tier
                assert response["trace_id"] == "rej-1", tier

    def test_invalid_trace_id_is_rejected_with_generated_id(self):
        with make_broker() as broker:
            response = broker.handle(run_request(trace_id="x" * 129))
            assert response["ok"] is False
            assert response["error"]["code"] == "bad_request"
            # The bogus id is not echoed back as a correlation key.
            assert response["trace_id"] != "x" * 129

    def test_rejections_are_flight_recorded_spanless(self):
        for tier in TIERS:
            with front_door(tier, fleet=FLEET) as door:
                door.handle({"id": 1, "op": "frobnicate", "trace_id": "rej-2"})
                rec = door.flight.get("rej-2")
                assert rec is not None, tier
                assert rec.op == "(rejected)" and rec.ok is False
                assert rec.spans == []
                # The tier's own trace op finds it (the router answers
                # from its recorder before asking the shards).
                found = door.handle(
                    {"id": 2, "op": "trace", "trace_id": "rej-2"}
                )["result"]
                assert found["found"], tier
                assert found["record"]["op"] == "(rejected)", tier


class TestRequestTrace:
    """One run request → one connected span tree."""

    def test_run_trace_has_all_acceptance_spans(self):
        with make_broker() as broker:
            response = broker.handle(run_request(trace_id="acc-1"))
            assert response["ok"]
            rec = broker.flight.get("acc-1")
            assert rec is not None
            names = {s["name"] for s in rec.spans}
            assert {"request", "queue.wait", "placement", "compile",
                    "execute"} <= names

    def test_every_span_carries_the_trace_id(self):
        with make_broker() as broker:
            broker.handle(run_request(trace_id="acc-2"))
            rec = broker.flight.get("acc-2")
            assert rec.spans
            for s in rec.spans:
                assert s["args"]["trace_id"] == "acc-2", s["name"]

    def test_tree_is_connected_under_a_single_request_root(self):
        with make_broker() as broker:
            broker.handle(run_request(trace_id="acc-3"))
            rec = broker.flight.get("acc-3")
            roots = span_tree(rec.spans)
            assert [r["name"] for r in roots] == ["request"]
            names = set()

            def walk(node):
                names.add(node["name"])
                for child in node["children"]:
                    walk(child)

            walk(roots[0])
            assert {"queue.wait", "placement", "compile", "execute"} <= names

    def test_compile_request_traces_compile_span(self):
        with make_broker() as broker:
            broker.handle(
                {"id": 1, "op": "compile", "source": SRC, "trace_id": "c-1"}
            )
            rec = broker.flight.get("c-1")
            names = {s["name"] for s in rec.spans}
            assert {"request", "queue.wait", "compile"} <= names

    def test_span_overflow_is_counted_not_silent(self):
        with make_broker(trace_max_spans=2) as broker:
            broker.handle(run_request(trace_id="tiny"))
            rec = broker.flight.get("tiny")
            assert len(rec.spans) <= 3  # collector bound + synthesized root
            assert rec.dropped_spans > 0


class TestTraceOp:
    def test_lookup_found(self):
        with make_broker() as broker:
            broker.handle(run_request(trace_id="t-1"))
            response = broker.handle(
                {"id": 2, "op": "trace", "trace_id": "t-1"}
            )
            assert response["ok"]
            result = response["result"]
            assert result["found"] is True
            assert result["record"]["trace_id"] == "t-1"
            assert result["record"]["span_tree"][0]["name"] == "request"

    def test_lookup_missing_is_not_an_error(self):
        with make_broker() as broker:
            response = broker.handle(
                {"id": 1, "op": "trace", "trace_id": "never-served"}
            )
            assert response["ok"]
            assert response["result"]["found"] is False
            assert response["result"]["record"] is None

    def test_listing_returns_flight_snapshot(self):
        with make_broker() as broker:
            broker.handle(run_request(1, trace_id="list-1"))
            broker.handle(run_request(2, trace_id="list-2"))
            response = broker.handle({"id": 3, "op": "trace"})
            assert response["ok"]
            snap = response["result"]
            assert snap["recorded"] >= 2
            ids = {r["trace_id"] for r in snap["slowest"]}
            assert {"list-1", "list-2"} <= ids

    def test_perfetto_export_is_chrome_trace_shaped(self):
        with make_broker() as broker:
            broker.handle(run_request(trace_id="p-1"))
            response = broker.handle(
                {"id": 2, "op": "trace", "trace_id": "p-1", "perfetto": True}
            )
            doc = response["result"]["chrome"]
            json.dumps(doc)  # JSON-serializable end to end
            events = doc["traceEvents"]
            complete = [e for e in events if e["ph"] == "X"]
            assert {e["name"] for e in complete} >= {
                "request", "queue.wait", "placement", "compile", "execute"
            }
            assert all(e["args"]["trace_id"] == "p-1" for e in complete)
            assert doc["otherData"]["trace_id"] == "p-1"


class TestFlightRetentionUnderLoad:
    def test_bounded_retention_while_serving(self):
        with make_broker(flight_slow=4, flight_errors=2) as broker:
            for i in range(12):
                broker.handle(run_request(i, trace_id=f"load-{i}"))
            for i in range(4):
                broker.handle(
                    {"id": 100 + i, "op": "compile",
                     "source": "kernel oops( {", "trace_id": f"err-{i}"}
                )
            assert len(broker.flight.slowest()) == 4
            assert len(broker.flight.errors()) == 2
            assert broker.flight.recorded == 16
            # Newest errors retained.
            assert [r.trace_id for r in broker.flight.errors()] == [
                "err-3", "err-2"
            ]

    def test_stats_expose_flight_counters(self):
        with make_broker() as broker:
            broker.handle(run_request(trace_id="s-1"))
            flight = broker.stats()["flight"]
            assert flight["recorded"] == 1
            assert flight["slow_retained"] == 1
            assert flight["errors_retained"] == 0


class TestExecutionRecordTagging:
    def test_session_execution_record_carries_trace_id(self):
        with make_broker(workers=1) as broker:
            broker.handle(run_request(trace_id="exec-1"))
            traces = [
                t
                for session in broker._all_sessions
                for t in session.stats.execution_traces
            ]
            assert traces, "run request should record an execution"
            assert traces[-1]["trace_id"] == "exec-1"

    def test_direct_session_use_is_untagged(self):
        from repro.compiler.session import CompilerSession
        from repro.lang.parser import parse_program
        from repro.ir.builder import build_module

        session = CompilerSession()
        fn = build_module(parse_program(SRC)).functions[0]
        import numpy as np

        x = np.ones(8)
        y = np.ones(8)
        session.execute(fn, {"x": x, "y": y, "n": 8})
        assert "trace_id" not in session.stats.execution_traces[-1]


class TestWatchOp:
    def test_in_process_watch_returns_one_snapshot(self):
        with make_broker() as broker:
            broker.handle(run_request(trace_id="w-1"))
            response = broker.handle({"id": 2, "op": "watch"})
            assert response["ok"]
            frame = response["result"]
            assert frame["requests"]["run"] == 1
            assert frame["requests_total"] >= 1
            # The watch request itself is in flight while snapshotting.
            assert frame["queue_depth"] == 1
            assert frame["workers"] == 2
            assert frame["flight_recorded"] >= 1
            assert "uptime_s" in frame and frame["uptime_s"] >= 0
            assert frame["scalar_fallbacks"] == 0
            assert set(frame["cache"]) == {
                "memory_hit_rate", "disk_hit_rate", "fnobj_hit_rate"
            }
            json.dumps(frame)

    def test_snapshot_latency_quantiles_populate(self):
        with make_broker() as broker:
            for i in range(3):
                broker.handle(run_request(i))
            frame = broker.telemetry_snapshot()
            lat = frame["latency_ms"]["run"]
            assert lat["count"] == 3
            assert lat["p50"] > 0 and lat["p999"] >= lat["p50"]

    def test_snapshot_placement_counts_fleet_choices(self):
        with make_broker() as broker:
            broker.handle(run_request())
            frame = broker.telemetry_snapshot()
            assert sum(frame["placement"].values()) >= 1
            assert set(frame["placement"]) <= set(FLEET)

    def test_watch_validation_rejects_bad_interval(self):
        with make_broker() as broker:
            response = broker.handle(
                {"id": 1, "op": "watch", "interval_ms": -5}
            )
            assert response["ok"] is False
            assert response["error"]["code"] == "bad_request"
