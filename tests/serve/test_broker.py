"""Broker semantics: admission, deadlines, retries with backoff, fault
injection, degradation, and warm restarts through the shared disk cache."""

import threading
import time

import pytest

from repro.compiler.options import SMALL_DIM_SAFARA
from repro.feedback.driver import (
    FeedbackTimeout,
    PermanentFeedbackError,
    TransientFeedbackError,
    classify_failure,
    fault_scope,
)
from repro.serve.broker import Broker, BrokerConfig

SRC = """
kernel axpy(const double x[1:n], double y[1:n], int n) {
  #pragma acc kernels loop gang vector(64)
  for (i = 1; i < n; i++) {
    y[i] = x[i] + y[i];
  }
}
"""

BAD_SRC = "kernel oops( {"


def make_broker(**overrides) -> Broker:
    defaults = dict(workers=2, backoff_base_ms=1.0, backoff_cap_ms=5.0)
    defaults.update(overrides)
    return Broker(BrokerConfig(**defaults))


def compile_request(request_id=1, source=SRC, **fields) -> dict:
    return {"id": request_id, "op": "compile", "source": source, **fields}


class TestClassification:
    def test_taxonomy(self):
        assert classify_failure(TransientFeedbackError("busy")) == "transient"
        assert classify_failure(FeedbackTimeout("late")) == "transient"
        assert classify_failure(TimeoutError()) == "transient"
        assert classify_failure(PermanentFeedbackError("bad")) == "permanent"
        assert classify_failure(ValueError("bug")) == "permanent"


class TestCompile:
    def test_compile_round_trip(self):
        with make_broker() as broker:
            response = broker.handle(compile_request())
            assert response["ok"]
            result = response["result"]
            assert result["config"] == SMALL_DIM_SAFARA.name
            assert result["kernels"][0]["registers"] > 0
            assert result["cached"] is None

    def test_concurrent_requests_all_answered(self):
        with make_broker(workers=4) as broker:
            requests = [
                compile_request(i, SRC + "\n" * i) for i in range(12)
            ]
            futures = [broker.submit(r) for r in requests]
            responses = [f.result(timeout=60) for f in futures]
        assert all(r["ok"] for r in responses)
        assert sorted(r["id"] for r in responses) == list(range(12))

    def test_timing_attached_when_env_given(self):
        with make_broker() as broker:
            response = broker.handle(compile_request(env={"n": 4096}))
        assert response["result"]["timing"]["total_ms"] > 0

    def test_parse_error_is_permanent(self):
        with make_broker() as broker:
            response = broker.handle(compile_request(source=BAD_SRC))
        assert not response["ok"]
        assert response["error"]["code"] == "parse_error"
        assert response["error"]["retryable"] is False

    def test_unknown_config_rejected(self):
        with make_broker() as broker:
            response = broker.handle(compile_request(config="nope"))
        assert response["error"]["code"] == "unknown_config"

    def test_malformed_request_rejected(self):
        with make_broker() as broker:
            assert broker.handle({"op": "compile"})["error"]["code"] == "bad_request"
            assert broker.handle({"op": "dance"})["error"]["code"] == "bad_request"
            assert broker.handle([1, 2])["error"]["code"] == "bad_request"


class TestAdmission:
    def test_queue_full_rejects_with_429_semantics(self):
        release = threading.Event()
        started = threading.Event()
        with make_broker(workers=1, queue_limit=0) as broker:
            broker._sleep = lambda s: None

            def stall(kernel, iteration):
                started.set()
                release.wait(timeout=30)

            with fault_scope(stall):
                first = broker.submit(compile_request(1))
                assert started.wait(timeout=30)
                # Worker busy, no queue slots: immediate rejection.
                second = broker.handle(compile_request(2))
                release.set()
                assert first.result(timeout=30)["ok"]
        assert not second["ok"]
        assert second["error"]["code"] == "queue_full"
        assert second["error"]["retryable"] is True
        assert broker.metrics.get("serve.rejected").value == 1

    def test_draining_broker_rejects(self):
        broker = make_broker()
        broker.drain()
        response = broker.handle(compile_request())
        assert response["error"]["code"] == "shutting_down"


class TestFaultInjection:
    def test_transient_failures_are_retried_with_backoff(self):
        failures = {"left": 2}
        sleeps: list[float] = []
        with make_broker(workers=1, max_retries=3) as broker:
            broker._sleep = sleeps.append

            def flaky(kernel, iteration):
                if failures["left"] > 0:
                    failures["left"] -= 1
                    raise TransientFeedbackError("assembler busy")

            with fault_scope(flaky):
                response = broker.handle(compile_request())
        assert response["ok"]
        assert response["result"]["attempts"] == 3
        assert broker.metrics.get("serve.retries").value == 2
        # Exponential: second wait strictly longer than the first even
        # with jitter (base*2 > base*(1+jitter) for jitter < 1).
        assert len(sleeps) == 2 and sleeps[1] > sleeps[0]

    def test_transient_failures_exhaust_retries(self):
        with make_broker(workers=1, max_retries=2) as broker:
            broker._sleep = lambda s: None

            def always_down(kernel, iteration):
                raise TransientFeedbackError("assembler down")

            with fault_scope(always_down):
                response = broker.handle(compile_request())
        assert not response["ok"]
        assert response["error"]["code"] == "transient_failure"
        assert response["error"]["retryable"] is True
        assert broker.metrics.get("serve.retries").value == 2

    def test_permanent_failures_fail_fast(self):
        calls = {"n": 0}
        with make_broker(workers=1, max_retries=5) as broker:
            broker._sleep = lambda s: None

            def broken(kernel, iteration):
                calls["n"] += 1
                raise PermanentFeedbackError("bad input")

            with fault_scope(broken):
                response = broker.handle(compile_request())
        assert not response["ok"]
        assert response["error"]["code"] == "compile_error"
        assert response["error"]["retryable"] is False
        assert calls["n"] == 1  # no retries
        assert broker.metrics.get("serve.retries").value == 0

    def test_injected_timeout_with_budget_left_is_retried(self):
        failures = {"left": 1}
        with make_broker(workers=1) as broker:
            broker._sleep = lambda s: None

            def times_out_once(kernel, iteration):
                if failures["left"] > 0:
                    failures["left"] -= 1
                    raise FeedbackTimeout("simulated hang")

            with fault_scope(times_out_once):
                response = broker.handle(compile_request(deadline_ms=60_000))
        assert response["ok"]
        assert response["result"]["attempts"] == 2

    def test_deadline_exhaustion_yields_deadline_exceeded(self):
        with make_broker(workers=1) as broker:
            def burn_budget(kernel, iteration):
                time.sleep(0.05)
                raise FeedbackTimeout("hung past the fence")

            with fault_scope(burn_budget):
                response = broker.handle(compile_request(deadline_ms=20))
        assert not response["ok"]
        assert response["error"]["code"] == "deadline_exceeded"
        assert response["error"]["retryable"] is True
        assert broker.metrics.get("serve.deadline_exceeded").value == 1

    def test_real_deadline_interrupts_feedback_loop(self):
        """No injected exception: the driver's own deadline check fires
        before the *second* region's backend run (the slow assembler is
        simulated by a hook that sleeps, never raises)."""
        two_regions = """
kernel pair(const double x[1:n], double y[1:n], double z[1:n], int n) {
  #pragma acc kernels loop gang vector(64)
  for (i = 1; i < n; i++) {
    y[i] = x[i] + y[i];
  }
  #pragma acc kernels loop gang vector(64)
  for (i = 1; i < n; i++) {
    z[i] = x[i] * y[i];
  }
}
"""
        with make_broker(workers=1, max_retries=0) as broker:
            def slow_assembler(kernel, iteration):
                time.sleep(0.03)

            with fault_scope(slow_assembler):
                response = broker.handle(
                    compile_request(source=two_regions, deadline_ms=25)
                )
        assert not response["ok"]
        assert response["error"]["code"] == "deadline_exceeded"


class TestWarmRestart:
    def test_restart_serves_from_disk_without_feedback(self, tmp_path):
        """Kill-and-restart property at the broker level: the second
        broker (fresh process stand-in) answers from the persistent tier
        with zero ptxas feedback iterations."""
        with make_broker(cache_dir=str(tmp_path)) as cold:
            r1 = cold.handle(compile_request())
        assert r1["ok"] and r1["result"]["cached"] is None
        ptxas_cold = cold.metrics.get("pipeline.pass.safara.backend_compilations")
        assert ptxas_cold is not None and ptxas_cold.value > 0

        with make_broker(cache_dir=str(tmp_path)) as warm:
            r2 = warm.handle(compile_request())
        assert r2["ok"] and r2["result"]["cached"] == "disk"
        # The ptxas-iteration counter never registered: no feedback ran.
        assert warm.metrics.get("pipeline.pass.safara.backend_compilations") is None
        assert warm.metrics.get("session.compilations").value == 0
        assert warm.disk_cache.hits == 1
        assert r2["result"]["kernels"] == r1["result"]["kernels"]

    def test_corrupted_disk_entry_recompiles_cleanly(self, tmp_path):
        with make_broker(cache_dir=str(tmp_path)) as cold:
            assert cold.handle(compile_request())["ok"]
        for p in (tmp_path / "shards").rglob("*.pkl"):
            p.write_bytes(b"\x00garbage")
        with make_broker(cache_dir=str(tmp_path)) as warm:
            response = warm.handle(compile_request())
        assert response["ok"]
        assert warm.disk_cache.corrupt == 1
        assert warm.metrics.get("session.compilations").value == 1


class TestRun:
    def run_request(self, request_id=1, **fields):
        return {
            "id": request_id,
            "op": "run",
            "source": SRC,
            "env": {"n": 256},
            **fields,
        }

    def test_run_round_trip(self):
        with make_broker() as broker:
            response = broker.handle(self.run_request())
        assert response["ok"]
        result = response["result"]
        assert result["executor"]["used"] == "codegen"
        assert result["stats"]["iterations"] == 255

    def test_missing_env_is_bad_request(self):
        with make_broker() as broker:
            response = broker.handle(self.run_request(env={}))
        assert response["error"]["code"] == "bad_request"
        assert "n" in response["error"]["message"]

    def test_deadline_pressure_degrades_to_scalar(self):
        with make_broker(degrade_threshold_ms=10_000.0) as broker:
            response = broker.handle(self.run_request(deadline_ms=5_000))
        assert response["ok"]
        result = response["result"]
        assert result["executor"]["used"] == "scalar"
        assert result["executor"]["degraded"] == "deadline_pressure"
        assert broker.metrics.get("serve.degradations").value == 1
        assert (
            broker.metrics.get("serve.degradations.deadline").value == 1
        )

    def test_explicit_scalar_is_not_a_degradation(self):
        with make_broker() as broker:
            response = broker.handle(self.run_request(executor="scalar"))
        assert response["ok"]
        assert response["result"]["executor"]["used"] == "scalar"
        assert broker.metrics.get("serve.degradations").value == 0

    def test_repeated_source_is_parsed_once(self, monkeypatch):
        import repro.lang.parser as parser

        calls = []
        real = parser.parse_program

        def counting(source, *args, **kwargs):
            calls.append(source)
            return real(source, *args, **kwargs)

        monkeypatch.setattr(parser, "parse_program", counting)
        with make_broker(cache_size=1) as broker:
            first = broker.handle(self.run_request(1))
            second = broker.handle(self.run_request(2, env={"n": 64}))
            other = broker.handle(
                self.run_request(3, source=SRC.replace("axpy", "axpz"))
            )
            again = broker.handle(self.run_request(4))
        assert all(r["ok"] for r in (first, second, other, again))
        assert second["result"]["stats"]["iterations"] == 63
        assert other["result"]["kernel"] == "axpz"
        # The third source evicts the first from the one-entry cache.
        assert len(calls) == 3

    def test_parse_error_is_not_cached(self):
        with make_broker() as broker:
            responses = [
                broker.handle(self.run_request(i, source=BAD_SRC))
                for i in range(2)
            ]
        assert [r["error"]["code"] for r in responses] == ["parse_error"] * 2


class TestCodegenServing:
    """The generated-NumPy tier as seen from the serving surface: per-tier
    metrics, executor validation, and warm-restart rebinding of persisted
    generated source."""

    def run_request(self, request_id=1, **fields):
        return {
            "id": request_id,
            "op": "run",
            "source": SRC,
            "env": {"n": 256},
            **fields,
        }

    @pytest.fixture(autouse=True)
    def fresh_function_cache(self, monkeypatch):
        from repro.codegen import numpy_source

        monkeypatch.setattr(numpy_source, "_CACHE", numpy_source.FunctionCache())

    def test_tier_counters_and_codegen_latency(self):
        with make_broker() as broker:
            assert broker.handle(self.run_request(1))["ok"]
            assert broker.handle(self.run_request(2))["ok"]
        assert broker.metrics.get("serve.codegen.tier.codegen").value == 2
        assert broker.metrics.get("serve.codegen.codegen_ms").count == 2
        # The second request reuses the first one's bound function object.
        assert broker.metrics.get("cache.fnobj.hits").value == 1

    def test_scalar_requests_count_under_their_tier(self):
        with make_broker() as broker:
            broker.handle(self.run_request(executor="scalar"))
        assert broker.metrics.get("serve.codegen.tier.scalar").value == 1

    def test_unknown_executor_is_bad_request(self):
        with make_broker() as broker:
            response = broker.handle(self.run_request(executor="warp"))
        assert not response["ok"]
        assert response["error"]["code"] == "bad_request"
        assert "valid executors" in response["error"]["message"]

    def test_removed_vector_executor_is_bad_request(self):
        """The interpreting ``vector`` tier is gone: the name is rejected
        like any unknown executor, listing the remaining ladder."""
        from repro.errors import ConfigError
        from repro.executors import parse_executor

        with pytest.raises(ConfigError) as exc_info:
            parse_executor("vector")
        expected = "valid executors are auto, codegen, scalar"
        assert expected in str(exc_info.value)
        with make_broker() as broker:
            response = broker.handle(self.run_request(executor="vector"))
        assert response["error"]["code"] == "bad_request"
        assert expected in response["error"]["message"]

    def test_warm_restart_rebinds_persisted_source(self, tmp_path, monkeypatch):
        from repro.codegen import numpy_source

        with make_broker(cache_dir=str(tmp_path)) as cold:
            assert cold.handle(self.run_request())["result"]["executor"][
                "used"
            ] == "codegen"

        # "Restart": empty function cache, and generation must not re-run —
        # the persisted source from the disk envelope is rebound instead.
        monkeypatch.setattr(numpy_source, "_CACHE", numpy_source.FunctionCache())

        def no_generate(*a, **k):
            raise AssertionError("warm restart must bind, not regenerate")

        monkeypatch.setattr(numpy_source, "compile_kernel", no_generate)
        with make_broker(cache_dir=str(tmp_path)) as warm:
            response = warm.handle(self.run_request())
        assert response["ok"]
        assert response["result"]["executor"]["used"] == "codegen"
        assert warm.metrics.get("serve.codegen.tier.codegen").value == 1


class TestStats:
    def test_stats_snapshot(self, tmp_path):
        with make_broker(cache_dir=str(tmp_path)) as broker:
            broker.handle(compile_request())
            response = broker.handle({"id": 9, "op": "stats"})
        assert response["ok"]
        result = response["result"]
        assert result["broker"]["workers"] == 2
        assert result["metrics"]["serve.requests.compile"]["value"] == 1
        assert result["disk_cache"]["writes"] == 1
