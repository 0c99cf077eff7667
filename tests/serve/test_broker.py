"""Broker semantics: admission, deadlines, one outcome per injected
backend fault, fallback accounting, and warm restarts through the shared
disk cache."""

import threading
import time

import pytest

import repro.compiler.session as session_module
import repro.lang.parser as parser_module
from repro.compiler.options import SMALL_DIM_SAFARA
from repro.errors import ReproError
from repro.feedback.driver import FeedbackTimeout, fault_scope
from repro.serve.broker import Broker, BrokerConfig

from .tiers import TIERS, front_door

SRC = """
kernel axpy(const double x[1:n], double y[1:n], int n) {
  #pragma acc kernels loop gang vector(64)
  for (i = 1; i < n; i++) {
    y[i] = x[i] + y[i];
  }
}
"""

BAD_SRC = "kernel oops( {"

TWO_KERNELS = """
kernel k0(double y[1:n], int n) {
  #pragma acc kernels loop gang vector(64)
  for (i = 1; i < n; i++) {
    y[i] = 2.0 * y[i];
  }
}
kernel k1(const double x[1:n], double y[1:n], int n) {
  #pragma acc kernels loop gang vector(64)
  for (i = 2; i < n; i++) {
    y[i] = x[i] + y[i];
  }
}
"""


@pytest.fixture
def parse_count(monkeypatch):
    """The sources parsed, in order, whether through the session's name
    for the parser or the parser module's own."""
    calls = []
    real = parser_module.parse_program

    def counting(source, filename="<string>"):
        calls.append(source)
        return real(source, filename)

    monkeypatch.setattr(session_module, "parse_program", counting)
    monkeypatch.setattr(parser_module, "parse_program", counting)
    return calls


def make_broker(**overrides) -> Broker:
    defaults = dict(workers=2)
    defaults.update(overrides)
    return Broker(BrokerConfig(**defaults))


def compile_request(request_id=1, source=SRC, **fields) -> dict:
    return {"id": request_id, "op": "compile", "source": source, **fields}


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
        for tier in TIERS:
            with front_door(tier) as door:
                for request in ({"op": "compile"}, {"op": "dance"}, [1, 2]):
                    response = door.handle(request)
                    assert response["error"]["code"] == "bad_request", tier
            # Every refusal is counted, with its code.
            assert door.metrics.get(f"{tier}.rejected").value == 3
            assert door.metrics.get(f"{tier}.rejected.bad_request").value == 3


class TestAdmission:
    """The front door's admission, on the broker and on the router."""

    def test_queue_full_rejects_with_429_semantics(self):
        for tier in TIERS:
            release = threading.Event()
            started = threading.Event()
            with front_door(tier, workers=1, queue_limit=0) as door:

                def stall(kernel, iteration):
                    started.set()
                    release.wait(timeout=30)

                with fault_scope(stall):
                    first = door.submit(compile_request(1))
                    assert started.wait(timeout=30), tier
                    # Pool thread busy, no queue slots: immediate rejection.
                    second = door.handle(compile_request(2))
                    release.set()
                    assert first.result(timeout=30)["ok"], tier
            assert not second["ok"]
            assert second["error"]["code"] == "queue_full", tier
            assert second["error"]["retryable"] is True
            assert door.metrics.get(f"{tier}.rejected").value == 1
            assert door.metrics.get(f"{tier}.rejected.queue_full").value == 1

    def test_draining_broker_rejects(self):
        for tier in TIERS:
            door = front_door(tier)
            door.drain()
            response = door.handle(compile_request())
            assert response["error"]["code"] == "shutting_down", tier
            assert door.metrics.get(f"{tier}.rejected.shutting_down").value == 1


class TestFaultInjection:
    @pytest.mark.parametrize(
        "fault, code, retryable, counter",
        [
            # Budget left is no second chance: the timeout is the answer.
            (FeedbackTimeout("simulated hang"), "deadline_exceeded", True,
             "serve.deadline_exceeded"),
            # A hierarchy error with no code of its own takes the op's.
            (ReproError("bad input"), "compile_error", False, None),
            # A bug is answered with the op's code and counted by type.
            (RuntimeError("boom"), "compile_error", False,
             "serve.errors.unexpected.RuntimeError"),
        ],
        ids=["timeout-with-budget-left", "repro-error-without-code", "bug"],
    )
    def test_each_backend_fault_has_one_outcome(
        self, fault, code, retryable, counter
    ):
        calls = []
        with make_broker(workers=1) as broker:

            def inject(kernel, iteration):
                calls.append(iteration)
                raise fault

            with fault_scope(inject):
                response = broker.handle(compile_request(deadline_ms=60_000))
        assert not response["ok"]
        assert response["error"]["code"] == code
        assert response["error"]["retryable"] is retryable
        assert calls == [0]  # the backend was called once
        counters = ("serve.deadline_exceeded",
                    "serve.errors.unexpected.RuntimeError")
        for name in counters:
            metric = broker.metrics.get(name)
            value = metric.value if metric is not None else 0
            assert value == (1 if name == counter else 0), name

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
        with make_broker(workers=1) as broker:
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

    def test_deadline_passed_in_the_queue_answers_deadline_exceeded(self):
        """The same rule as ``compile``: a run whose budget is gone before
        it starts is not demoted to a slower tier, it is answered."""
        release = threading.Event()
        started = threading.Event()
        with make_broker(workers=1) as broker:

            def stall(kernel, iteration):
                started.set()
                release.wait(timeout=30)

            with fault_scope(stall):
                first = broker.submit(compile_request(1))
                assert started.wait(timeout=30)
                second = broker.submit(self.run_request(2, deadline_ms=20))
                time.sleep(0.05)
                release.set()
                assert first.result(timeout=30)["ok"]
                response = second.result(timeout=30)
        assert not response["ok"]
        assert response["error"]["code"] == "deadline_exceeded"
        assert "before the run" in response["error"]["message"]
        assert broker.metrics.get("serve.deadline_exceeded").value == 1
        assert broker.metrics.get("session.executions").value == 0

    def test_repeated_source_is_parsed_once(self, parse_count):
        calls = parse_count
        with make_broker(workers=1, cache_size=1) as broker:
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

    def test_run_and_compile_share_one_parse(self, parse_count):
        with make_broker(workers=1) as broker:
            run = broker.handle(self.run_request(1))
            compiled = broker.handle(compile_request(2))
        assert run["ok"] and compiled["ok"]
        assert parse_count == [SRC]

    def test_run_honours_the_requested_kernel(self):
        with make_broker() as broker:
            compiled = broker.handle(compile_request(1, TWO_KERNELS, kernel="k1"))
            run = broker.handle(self.run_request(2, source=TWO_KERNELS, kernel="k1"))
        assert [k["name"] for k in compiled["result"]["kernels"]] == ["k1_k1"]
        assert run["ok"]
        assert run["result"]["kernel"] == "k1"
        # k1's loop starts at 2: one iteration fewer than k0's.
        assert run["result"]["stats"]["iterations"] == 254

    def test_parse_error_is_not_cached(self):
        with make_broker() as broker:
            responses = [
                broker.handle(self.run_request(i, source=BAD_SRC))
                for i in range(2)
            ]
        assert [r["error"]["code"] for r in responses] == ["parse_error"] * 2


class TestCodegenServing:
    """The generated-NumPy tier as seen from the serving surface: per-tier
    metrics, executor validation, memory-only generated programs, and
    loud failures."""

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

    def test_run_never_touches_the_disk_cache(self, tmp_path, monkeypatch):
        """Generated programs live in memory only: a ``run`` neither reads
        nor writes a disk envelope, and a restarted broker regenerates."""
        from repro.codegen import numpy_source
        from repro.pipeline.diskcache import DiskCache

        def no_disk(*a, **k):
            raise AssertionError("run must not touch the disk cache")

        monkeypatch.setattr(DiskCache, "get_entry", no_disk)
        monkeypatch.setattr(DiskCache, "put", no_disk)
        for _restart in range(2):
            monkeypatch.setattr(numpy_source, "_CACHE", numpy_source.FunctionCache())
            with make_broker(cache_dir=str(tmp_path)) as broker:
                response = broker.handle(self.run_request())
            assert response["result"]["executor"]["used"] == "codegen"
            assert broker.metrics.get("cache.fnobj.misses").value == 1

    def test_generated_code_bug_answers_error_not_scalar(self):
        """A bug inside generated code (here an injected ``IndexError``) is
        not a fallback: the run answers an error code."""
        from repro.codegen import numpy_source

        def bug(interp):
            raise IndexError("synthetic generated-code bug")

        with make_broker() as broker:
            assert broker.handle(self.run_request(1))["ok"]
            for gk in numpy_source._CACHE._map.values():
                gk.func = bug
            response = broker.handle(self.run_request(2))
        assert not response["ok"]
        assert response["error"]["code"] == "execution_error"
        assert "IndexError: synthetic generated-code bug" in response["error"]["message"]
        assert broker.metrics.get("serve.codegen.tier.scalar") is None


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


class TestFallbackAccounting:
    """Every scalar fallback is counted once per registry, with its
    reason, and stays on the request's ``execute`` span."""

    def test_fallbacks_agree_across_registry_response_and_trace(self):
        from repro.loadgen import LoadProfile, _request_for, workload_specs

        profile = LoadProfile()
        _specs, runnable = workload_specs(profile)
        requests = []
        for spec in runnable:
            request = _request_for("run", spec, profile)
            del request["_benchmark"]
            requests += [dict(request, executor="auto")] * 3
        requests.append(dict(requests[0], executor="scalar"))
        with make_broker(workers=1, flight_slow=len(requests)) as broker:
            responses = []
            for i, request in enumerate(requests):
                response = broker.handle(
                    dict(request, id=i, trace_id=f"fb-{i}")
                )
                assert response["ok"], response
                responses.append(response)
        fell_back = [
            r for r in responses if r["result"]["executor"]["fallback_reason"]
        ]
        assert fell_back, "expected at least one codegen fallback"
        m = broker.metrics
        by_reason = sum(
            m.get(name).value
            for name in m.names()
            if name.startswith("codegen.fallbacks.")
        )
        scalar_fallbacks = m.get("session.executions.scalar_fallback").value
        assert scalar_fallbacks == by_reason == len(fell_back)
        for response in fell_back:
            record = broker.flight.get(response["trace_id"])
            reasons = [
                s["args"].get("fallback_reason")
                for s in record.spans
                if s["name"] == "execute"
            ]
            assert reasons == [response["result"]["executor"]["fallback_reason"]]
        # An explicit scalar run is the oracle, not a fallback.
        scalar = responses[-1]["result"]["executor"]
        assert scalar["used"] == "scalar" and scalar["fallback_reason"] is None
        assert m.get("session.executions.scalar_requested").value == 1
