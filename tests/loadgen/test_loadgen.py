"""Open-loop load generator: deterministic schedules, the
coordinated-omission property (the one reason the harness exists), and
end-to-end SLO reports against in-process and socket brokers."""

import threading
import time
from concurrent.futures import Future

import pytest

from repro.loadgen import (
    LoadProfile,
    build_schedule,
    quick_profile,
    run_load,
    workload_specs,
)

QUICK_BENCH = ("303.ostencil", "355.seismic")


def profile(**overrides) -> LoadProfile:
    defaults = dict(
        rate_rps=40.0,
        duration_s=0.5,
        arrival="fixed",
        benchmarks=QUICK_BENCH,
        seed=0,
    )
    defaults.update(overrides)
    return LoadProfile(**defaults)


class TestSchedule:
    def test_same_seed_same_schedule(self):
        a = build_schedule(profile(arrival="poisson", seed=7))
        b = build_schedule(profile(arrival="poisson", seed=7))
        assert a == b

    def test_different_seed_different_schedule(self):
        a = build_schedule(profile(arrival="poisson", seed=1))
        b = build_schedule(profile(arrival="poisson", seed=2))
        assert [t for t, _ in a] != [t for t, _ in b]

    def test_fixed_arrivals_are_uniform(self):
        schedule = build_schedule(profile(rate_rps=10.0, duration_s=1.0))
        offsets = [t for t, _ in schedule]
        assert len(offsets) == 10
        gaps = [b - a for a, b in zip(offsets, offsets[1:])]
        assert all(abs(g - 0.1) < 1e-9 for g in gaps)

    def test_poisson_arrivals_average_the_rate(self):
        schedule = build_schedule(
            profile(arrival="poisson", rate_rps=200.0, duration_s=5.0, seed=3)
        )
        offsets = [t for t, _ in schedule]
        assert offsets == sorted(offsets)
        mean_gap = offsets[-1] / (len(offsets) - 1)
        assert mean_gap == pytest.approx(1.0 / 200.0, rel=0.15)
        # Exponential gaps: variance is on the order of the mean^2,
        # nothing like the zero-variance fixed pulse.
        gaps = [b - a for a, b in zip(offsets, offsets[1:])]
        assert max(gaps) > 3 * mean_gap

    def test_requests_draw_from_selected_benchmarks(self):
        specs, runnable = workload_specs(profile())
        assert {s.name for s in specs} == set(QUICK_BENCH)
        assert runnable, "quick benchmarks must be functionally runnable"
        schedule = build_schedule(profile())
        sources = {s.source for s in specs}
        for _, request in schedule:
            assert request["source"] in sources
            assert request["op"] in ("compile", "run")

    def test_run_requests_carry_pointer_lengths(self):
        schedule = build_schedule(
            profile(benchmarks=("303.ostencil",), mix={"run": 1.0})
        )
        for _, request in schedule:
            assert any(k.startswith("__len_") for k in request["env"])

    def test_run_request_keeps_float_scalars_and_matches_the_oracle(self):
        """EP's ``ainv`` stays a float (int-casting it made the kernel
        divide by zero), and a broker answers the request with the scalar
        oracle's stats."""
        from repro.bench import NAS, load_all
        from repro.gpu.interpreter import build_run_args, run_kernel
        from repro.ir import build_module
        from repro.lang import parse_program
        from repro.loadgen import _request_for
        from repro.serve.broker import Broker, BrokerConfig

        load_all()
        spec = NAS.get("EP")
        request = _request_for("run", spec, profile(benchmarks=("EP",)))
        ainv = request["env"]["ainv"]
        assert isinstance(ainv, float) and ainv == spec.scalar_args["ainv"]

        fn = build_module(parse_program(spec.source)).functions[0]
        _, stats = run_kernel(fn, build_run_args(fn, request["env"]))
        request.pop("_benchmark")
        with Broker(BrokerConfig(workers=1)) as broker:
            response = broker.handle({"id": 1, **request})
        assert response["ok"], response
        assert response["result"]["stats"] == {
            "loads": stats.loads,
            "stores": stats.stores,
            "flops": stats.flops,
            "iterations": stats.iterations,
        }

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError, match="unknown benchmarks"):
            build_schedule(profile(benchmarks=("no.such.bench",)))

    def test_run_mix_without_runnable_specs_rejected(self):
        # 354.cg needs hand-built index arrays: compile-only.
        with pytest.raises(ValueError, match="runnable"):
            build_schedule(profile(benchmarks=("354.cg",), mix={"run": 1.0}))

    def test_bad_arrival_and_rates_rejected(self):
        with pytest.raises(ValueError):
            build_schedule(profile(arrival="bursty"))
        with pytest.raises(ValueError):
            build_schedule(profile(rate_rps=0.0))
        with pytest.raises(ValueError):
            build_schedule(profile(mix={}))

    def test_quick_profile_is_ci_sized(self):
        p = quick_profile()
        schedule = build_schedule(p)
        assert p.arrival == "fixed"
        assert len(schedule) == int(p.rate_rps * p.duration_s)
        assert schedule[-1][0] < p.duration_s


class _SerialBroker:
    """A fake one-worker broker whose service time is constant.  Requests
    queue behind each other exactly like a stalled server."""

    def __init__(self, service_s: float):
        self.service_s = service_s
        self._lock = threading.Lock()
        self._pool_depth = 0

    def submit(self, request: dict) -> Future:
        future: Future = Future()

        def work():
            with self._lock:  # serialize: one request at a time
                time.sleep(self.service_s)
            future.set_result(
                {"id": request.get("id"), "ok": True, "result": {}}
            )

        threading.Thread(target=work, daemon=True).start()
        return future


class TestCoordinatedOmission:
    def test_latency_is_charged_from_scheduled_arrival(self):
        """At 2x overload of a serial server, a closed-loop harness would
        report every latency ~= the 20ms service time (it waits before
        sending the next request, hiding the queue).  The open-loop
        schedule keeps arriving on time, so the backlog shows up in the
        recorded quantiles: the worst latency spans most of the run."""
        service_s = 0.02
        p = profile(rate_rps=100.0, duration_s=0.4, prewarm=False)
        report = run_load(p, broker=_SerialBroker(service_s))
        lat = report["latency_ms"]["overall"]
        assert report["requests"]["completed"] == 40
        # 40 requests x 20ms service = 800ms of work offered in 400ms:
        # the last arrival waits roughly the whole overhang.
        assert lat["max"] > 300.0
        assert lat["p50"] > 5 * service_s * 1000.0
        assert report["arrival"]["coordinated_omission_safe"] is True
        assert report["arrival"]["latency_basis"] == "scheduled_arrival"

    def test_underloaded_server_shows_service_time(self):
        service_s = 0.002
        p = profile(rate_rps=20.0, duration_s=0.5, prewarm=False)
        report = run_load(p, broker=_SerialBroker(service_s))
        lat = report["latency_ms"]["overall"]
        assert lat["p50"] < 50.0  # no backlog: latency ~ service time


class TestInProcessRun:
    def test_report_shape_and_slo_fields(self, tmp_path):
        from repro.serve.broker import Broker, BrokerConfig

        p = profile(rate_rps=20.0, duration_s=0.5)
        with Broker(
            BrokerConfig(workers=2, cache_dir=str(tmp_path / "cache"))
        ) as broker:
            report = run_load(p, broker=broker)
        requests = report["requests"]
        assert requests["scheduled"] == 10
        assert requests["completed"] == 10
        assert requests["errors"] == 0
        assert report["error_rate"] == 0.0
        assert report["queue_full_rate"] == 0.0
        assert report["prewarmed_sources"] == 2
        assert report["throughput_rps"] > 0
        lat = report["latency_ms"]
        assert lat["overall"]["count"] == 10
        for op_report in lat["per_op"].values():
            assert {"p50", "p99", "p999"} <= set(op_report)
        assert report["profile"] == p.as_dict()

    def test_prewarm_makes_compiles_warm(self, tmp_path):
        from repro.serve.broker import Broker, BrokerConfig

        p = profile(rate_rps=20.0, duration_s=0.5, mix={"compile": 1.0})
        with Broker(
            BrokerConfig(workers=2, cache_dir=str(tmp_path / "cache"))
        ) as broker:
            report = run_load(p, broker=broker)
        # Every measured compile hits the memory or shared disk tier.
        assert report["warm_hit_rate"] == 1.0

    def test_warm_hit_rate_is_none_without_compiles(self):
        p = profile(rate_rps=10.0, duration_s=0.3, mix={"run": 1.0},
                    prewarm=False)
        report = run_load(p, broker=_SerialBroker(0.001))
        assert report["warm_hit_rate"] is None

    def test_requires_exactly_one_target(self):
        p = profile()
        with pytest.raises(ValueError):
            run_load(p)
        with pytest.raises(ValueError):
            run_load(p, broker=_SerialBroker(0.0), socket_path="/tmp/x")

    def test_progress_callback_sees_every_completion(self):
        calls = []
        p = profile(rate_rps=20.0, duration_s=0.5, prewarm=False)
        run_load(
            p,
            broker=_SerialBroker(0.001),
            on_progress=lambda done, total: calls.append((done, total)),
        )
        assert len(calls) == 10
        assert calls[-1] == (10, 10)

    def test_write_report_round_trips(self, tmp_path):
        import json

        from repro.loadgen import write_report

        p = profile(rate_rps=10.0, duration_s=0.3, prewarm=False)
        report = run_load(p, broker=_SerialBroker(0.001))
        out = tmp_path / "slo.json"
        write_report(report, str(out))
        assert json.loads(out.read_text()) == json.loads(
            json.dumps(report)
        )


class _ShardStampingBroker(_SerialBroker):
    """A fake router: annotates each response with a round-robin
    ``shard`` index, the way the cluster router does."""

    def __init__(self, service_s: float, shards: int):
        super().__init__(service_s)
        self.shards = shards
        self._count = 0

    def _pick(self, count: int) -> int:
        return count % self.shards

    def submit(self, request: dict) -> Future:
        with self._lock:
            shard = self._pick(self._count)
            self._count += 1
        future: Future = Future()

        def work():
            time.sleep(self.service_s)
            future.set_result(
                {
                    "id": request.get("id"),
                    "ok": True,
                    "result": {},
                    "shard": shard,
                }
            )

        threading.Thread(target=work, daemon=True).start()
        return future


class TestTenantAndShards:
    def test_tenant_is_stamped_on_every_request(self):
        from repro.loadgen import build_schedule

        schedule = build_schedule(profile(tenant="acme"))
        assert schedule
        assert all(req["tenant"] == "acme" for _, req in schedule)

    def test_no_tenant_field_without_a_tenant(self):
        from repro.loadgen import build_schedule

        schedule = build_schedule(profile())
        assert all("tenant" not in req for _, req in schedule)

    def test_tenant_appears_in_the_report_profile(self):
        p = profile(rate_rps=10.0, duration_s=0.3, prewarm=False,
                    tenant="acme")
        report = run_load(p, broker=_SerialBroker(0.001))
        assert report["profile"]["tenant"] == "acme"

    def test_per_shard_counts_and_balance(self):
        p = profile(rate_rps=40.0, duration_s=0.5, prewarm=False)
        report = run_load(p, broker=_ShardStampingBroker(0.001, shards=2))
        assert report["per_shard"] == {"0": 10, "1": 10}
        balance = report["shard_balance"]
        assert balance["shards_seen"] == 2
        assert balance["fractions"] == {"0": 0.5, "1": 0.5}
        # Perfectly even: the busiest shard carries exactly its share.
        assert balance["balance_coefficient"] == pytest.approx(1.0)
        assert balance["max_abs_deviation"] == pytest.approx(0.0)

    def test_skew_shows_up_in_the_coefficient(self):
        class Skewed(_ShardStampingBroker):
            # 3 of every 4 requests land on shard 0.
            def _pick(self, count: int) -> int:
                return 0 if count % 4 else 1

        p = profile(rate_rps=40.0, duration_s=0.5, prewarm=False)
        report = run_load(p, broker=Skewed(0.001, shards=2))
        balance = report["shard_balance"]
        assert report["per_shard"] == {"0": 15, "1": 5}
        # Shard 0 carries 1.5x its fair share; the coefficient says so.
        assert balance["balance_coefficient"] == pytest.approx(1.5)
        assert balance["max_abs_deviation"] == pytest.approx(0.25)

    def test_unsharded_broker_reports_no_balance(self):
        p = profile(rate_rps=10.0, duration_s=0.3, prewarm=False)
        report = run_load(p, broker=_SerialBroker(0.001))
        assert report["per_shard"] == {}
        assert report["shard_balance"] is None


class TestSocketRun:
    def test_load_over_socket(self, tmp_path):
        from repro.serve.broker import Broker, BrokerConfig
        from repro.serve.daemon import SocketServer

        broker = Broker(
            BrokerConfig(workers=2, cache_dir=str(tmp_path / "cache"))
        )
        server = SocketServer(broker, str(tmp_path / "lg.sock"))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            p = profile(rate_rps=20.0, duration_s=0.5)
            report = run_load(p, socket_path=server.path)
            assert report["requests"]["completed"] == 10
            assert report["error_rate"] == 0.0
            assert report["warm_hit_rate"] == 1.0
        finally:
            server.close()
            thread.join(timeout=5)
            broker.drain()
