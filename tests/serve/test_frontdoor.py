"""The shared front door's exception → wire-code table, the typed
placement fall-through, and the daemon's ``watch`` admission, on both
serving tiers."""

import io
import json
import threading
import time

from repro.errors import TimingUnavailable
from repro.feedback.driver import PermanentFeedbackError
from repro.serve import broker as broker_module
from repro.serve import protocol
from repro.serve.broker import Broker, BrokerConfig
from repro.serve.daemon import _start_watch, handle_stream
from repro.serve.protocol import ServeError

from .tiers import TIERS, front_door

SRC = """
kernel axpy(const double x[1:n], double y[1:n], int n) {
  #pragma acc kernels loop gang vector(64)
  for (i = 1; i < n; i++) {
    y[i] = x[i] + y[i];
  }
}
"""


def raising(exc):
    def dispatch(*args, **kwargs):
        raise exc

    return dispatch


class TestErrorTable:
    def test_a_bug_answers_the_ops_failure_code_and_is_counted(self):
        expected = {"compile": "compile_error", "run": "execution_error",
                    "tune": "tune_error"}
        for tier in TIERS:
            with front_door(tier) as door:
                door._dispatch = raising(KeyError("lost"))
                for op, code in expected.items():
                    response = door.handle(
                        {"id": op, "op": op, "source": SRC, "env": {"n": 8},
                         "trace_id": f"bug-{op}"}
                    )
                    error = response["error"]
                    assert error["code"] == code, (tier, op)
                    assert error["message"] == "KeyError: 'lost'"
                    assert error["retryable"] is False
                    assert response["trace_id"] == f"bug-{op}"
                metrics = door.metrics
                assert metrics.get(f"{tier}.errors.unexpected").value == 3
                assert (
                    metrics.get(f"{tier}.errors.unexpected.KeyError").value == 3
                )

    def test_a_control_op_bug_answers_internal(self):
        for tier in TIERS:
            with front_door(tier) as door:
                door.stats = raising(RuntimeError("boom"))
                response = door.handle({"id": 1, "op": "stats"})
                assert response["error"]["code"] == protocol.INTERNAL, tier
                assert (
                    door.metrics.get(f"{tier}.errors.unexpected.RuntimeError")
                    .value == 1
                )

    def test_hierarchy_errors_keep_their_codes_uncounted(self):
        cases = [
            (ServeError(protocol.SHARD_UNAVAILABLE, "gone"),
             protocol.SHARD_UNAVAILABLE, True),
            (TimingUnavailable("no trip count"),
             protocol.TIMING_UNAVAILABLE, False),
            # A hierarchy error with no code of its own takes the op's.
            (PermanentFeedbackError("bad input"), protocol.COMPILE_ERROR, False),
        ]
        for tier in TIERS:
            with front_door(tier) as door:
                for exc, code, retryable in cases:
                    door._dispatch = raising(exc)
                    error = door.handle(
                        {"id": 1, "op": "compile", "source": SRC}
                    )["error"]
                    assert error["code"] == code, (tier, exc)
                    assert error["retryable"] is retryable
                assert door.metrics.get(f"{tier}.errors.unexpected") is None


class TestPlacementFallThrough:
    FLEET = ("kepler-k20xm", "cdna2-mi250")

    def test_hierarchy_failure_falls_through_counted(self, monkeypatch):
        monkeypatch.setattr(
            broker_module, "choose_placement",
            raising(TimingUnavailable("no trip count")),
        )
        with Broker(BrokerConfig(workers=1, fleet=self.FLEET)) as broker:
            response = broker.handle(
                {"id": 1, "op": "compile", "source": SRC, "env": {"n": 64},
                 "trace_id": "place-1"}
            )
            rec = broker.flight.get("place-1")
        # The single-arch path answered.
        assert response["ok"] and "placement" not in response["result"]
        assert broker.metrics.get("serve.placement.errors").value == 1
        placement = [s for s in rec.spans if s["name"] == "placement"]
        assert placement[0]["args"]["error"] == protocol.TIMING_UNAVAILABLE

    def test_a_bug_in_placement_reaches_the_front_door(self, monkeypatch):
        monkeypatch.setattr(
            broker_module, "choose_placement", raising(KeyError("arch"))
        )
        with Broker(BrokerConfig(workers=1, fleet=self.FLEET)) as broker:
            response = broker.handle(
                {"id": 1, "op": "run", "source": SRC, "env": {"n": 64}}
            )
        assert response["error"]["code"] == protocol.EXECUTION_ERROR
        assert broker.metrics.get("serve.placement.errors") is None
        assert broker.metrics.get("serve.errors.unexpected.KeyError").value == 1


class TestStreamAdmission:
    def test_a_line_that_is_not_json_is_refused_at_the_front_door(self):
        for tier in TIERS:
            out = io.StringIO()
            with front_door(tier) as door:
                handle_stream(door, io.StringIO("{not json\n"), out)
                (response,) = map(json.loads, out.getvalue().splitlines())
                assert response["error"]["code"] == protocol.BAD_JSON, tier
                assert response["id"] is None
                assert door.metrics.get(f"{tier}.rejected").value == 1
                assert door.metrics.get(f"{tier}.rejected.bad_json").value == 1
                found = door.handle(
                    {"id": 2, "op": "trace", "trace_id": response["trace_id"]}
                )["result"]
            assert found["found"], tier
            assert found["record"]["op"] == "(rejected)"
            assert found["record"]["error_code"] == protocol.BAD_JSON

    def test_watch_is_counted_under_the_tiers_own_prefix(self):
        for tier in TIERS:
            out = io.StringIO()
            lock, stop = threading.Lock(), threading.Event()
            with front_door(tier) as door:
                for request in (
                    {"id": 1, "op": "watch", "count": 1, "interval_ms": 1,
                     "trace_id": "w-1"},
                    {"id": 2, "op": "watch", "interval_ms": -5,
                     "trace_id": "w-2"},
                ):
                    _start_watch(door, out, lock, request, stop)
                # The one-frame stream runs on its own thread.
                deadline = time.monotonic() + 10.0
                while (
                    len(out.getvalue().splitlines()) < 2
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
            responses = {
                r["id"]: r for r in map(json.loads, out.getvalue().splitlines())
            }
            assert responses[1]["ok"] and responses[1]["trace_id"] == "w-1"
            assert responses[1]["result"]["requests"]["watch"] == 1, tier
            assert responses[2]["error"]["code"] == "bad_request"
            assert door.metrics.get(f"{tier}.requests.watch").value == 1
            assert door.flight.get("w-2").op == "(rejected)"
            other = "cluster" if tier == "serve" else "serve"
            assert door.metrics.get(f"{other}.requests.watch") is None
