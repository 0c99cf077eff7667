"""The sharded serving tier: routing determinism and cache
co-location, hot-key replication, a slow owner answering for itself,
per-tenant quotas, failover, drain/restart with zero warm-cache loss,
and the rollup surfaces (stats / telemetry / trace fan-out).

Almost everything here drives :class:`LocalShard` routers — in-process,
no subprocesses — so the suite stays deterministic and fast.
``TestProcessShards`` runs one real two-daemon cluster
(:class:`ProcessShard`) and kills a shard's daemon under it; the command
line a process shard starts its daemon with is also checked without
spawning it.
"""

import os
import threading
import time
from concurrent.futures import Future
from types import SimpleNamespace

import pytest

from repro.cli import _broker_config, build_parser
from repro.errors import BadRequestError, raise_for_response
from repro.serve import hashring, protocol
from repro.serve.broker import Broker, BrokerConfig
from repro.serve.cluster import (
    ClusterConfig,
    LocalShard,
    ProcessShard,
    Router,
    routing_key,
)

AXPY = """
kernel axpy(const double x[1:n], double y[1:n], int n) {
  #pragma acc kernels loop gang vector(64)
  for (i = 1; i < n; i++) {
    y[i] = x[i] + y[i];
  }
}
"""

SCALE = """
kernel scale(double y[1:n], int n) {
  #pragma acc kernels loop gang vector(64)
  for (i = 1; i < n; i++) {
    y[i] = 2.0 * y[i];
  }
}
"""


def source_variant(i: int) -> str:
    """A family of distinct-but-valid kernels (distinct routing keys)."""
    return AXPY.replace("x[i] + y[i]", f"x[i] + y[i] + {float(i)}")


def expected_shard(request: dict, n: int = 2) -> int:
    owner = hashring.route(routing_key(request), [f"shard-{i}" for i in range(n)])
    return int(owner.rsplit("-", 1)[1])


def quiet_config(**overrides) -> ClusterConfig:
    """Two local shards without hot-key replication, so placement is
    pure rendezvous hashing."""
    defaults = dict(shards=2, broker=BrokerConfig(workers=1), replication=1)
    defaults.update(overrides)
    return ClusterConfig(**defaults)


class TestProcessShardArgv:
    def test_shard_command_line_round_trips_through_repro_serve(self):
        """The flags a process shard passes its daemon parse under
        ``repro serve``'s own parser and rebuild the shard's config, so
        a flag dropped from the CLI fails here, not only in CI's smoke."""
        config = BrokerConfig(
            workers=3,
            queue_limit=7,
            default_deadline_ms=1234.5,
            cache_dir="/tmp/shard-cache",
            fleet=("kepler-k20xm", "cdna2-mi250"),
        )
        shard = SimpleNamespace(config=config, socket_path="/tmp/shard-1.sock")
        argv = ProcessShard._argv(shard)
        assert argv[1:4] == ["-m", "repro", "serve"]
        args = build_parser().parse_args(argv[3:])
        assert args.socket == "/tmp/shard-1.sock"
        assert _broker_config(args) == config


class TestRoutingKey:
    def test_op_and_env_do_not_split_a_kernel(self):
        """compile / run / tune of one kernel must co-locate (that is
        the point of content-addressed routing: shared warm tiers)."""
        compile_req = {"op": "compile", "source": AXPY}
        run_req = {"op": "run", "source": AXPY, "env": {"n": 64}}
        tune_req = {"op": "tune", "source": AXPY, "env": {"n": 1024}}
        assert (
            routing_key(compile_req)
            == routing_key(run_req)
            == routing_key(tune_req)
        )

    def test_source_config_and_arch_do_split(self):
        base = {"op": "compile", "source": AXPY}
        assert routing_key(base) != routing_key({**base, "source": SCALE})
        assert routing_key(base) != routing_key({**base, "config": "acc_opt"})
        assert routing_key(base) != routing_key({**base, "arch": "kepler-k20x"})


class TestRouting:
    def test_keyed_response_is_annotated_and_deterministic(self):
        with Router(quiet_config()) as router:
            for i in range(4):
                request = {"id": i, "op": "compile", "source": source_variant(i)}
                response = router.handle(request)
                assert response["ok"], response
                assert response["shard"] == expected_shard(request)

    def test_one_kernel_pins_to_one_shard_across_ops(self):
        with Router(quiet_config()) as router:
            compile_resp = router.handle(
                {"id": 1, "op": "compile", "source": AXPY}
            )
            run_resp = router.handle(
                {"id": 2, "op": "run", "source": AXPY, "env": {"n": 64}}
            )
            assert compile_resp["ok"] and run_resp["ok"]
            assert compile_resp["shard"] == run_resp["shard"]

    def test_control_ops_are_not_annotated(self):
        with Router(quiet_config()) as router:
            response = router.handle({"id": 1, "op": "stats"})
            assert response["ok"]
            assert "shard" not in response

    def test_invalid_request_rejected_without_routing(self):
        with Router(quiet_config()) as router:
            response = router.handle({"id": 1, "op": "compile"})
            assert not response["ok"]
            assert response["error"]["code"] == protocol.BAD_REQUEST

    def test_second_request_hits_the_warm_shard_memory(self):
        with Router(quiet_config()) as router:
            first = router.handle({"id": 1, "op": "compile", "source": AXPY})
            second = router.handle({"id": 2, "op": "compile", "source": AXPY})
            assert first["result"]["cached"] is None  # cold
            assert second["result"]["cached"] == "memory"

    def test_a_second_env_hits_the_warm_shard_memory(self):
        """The env is not in the compile key: one kernel compiled at two
        problem sizes compiles once, and each answer is timed under its
        own env exactly as a cold shard times it."""
        requests = [
            {"op": "compile", "source": AXPY, "env": {"n": n}}
            for n in (1 << 20, 1 << 22)
        ]
        with Router(quiet_config()) as router:
            first, second = (router.handle(dict(r)) for r in requests)
            assert first["shard"] == second["shard"]
            assert first["result"]["cached"] is None
            assert second["result"]["cached"] == "memory"
            assert first["result"]["cache_key"] == second["result"]["cache_key"]
        with Router(quiet_config()) as fresh:
            cold = fresh.handle(dict(requests[1]))
        assert cold["result"]["cached"] is None
        assert second["result"]["timing"] == cold["result"]["timing"]
        assert second["result"]["timing"] != first["result"]["timing"]


class TestHotKeyReplication:
    def test_hot_key_rotates_over_distinct_shards(self):
        config = quiet_config(replication=2)
        with Router(config) as router:
            # Hot from its third hit on, then alternating over both ranks.
            for i in range(6):
                response = router.handle(
                    {"id": i, "op": "compile", "source": AXPY}
                )
                assert response["ok"]
            routed = [
                router.metrics.get(f"cluster.routed.shard-{i}").value
                for i in range(2)
            ]
            # One key, six requests: without replication one shard gets
            # all six; rotation must spread them over both.
            assert all(n >= 2 for n in routed), routed
            assert router.telemetry_snapshot()["cluster"]["hot_keys"] == 1

    def test_replication_one_disables_rotation(self):
        with Router(quiet_config(replication=1)) as router:
            for i in range(5):
                router.handle({"id": i, "op": "compile", "source": AXPY})
            request = {"op": "compile", "source": AXPY}
            pinned = expected_shard(request)
            assert (
                router.metrics.get(f"cluster.routed.shard-{pinned}").value == 5
            )


class TestQuotas:
    def test_quota_exhaustion_yields_retryable_quota_exceeded(self):
        config = quiet_config(tenant_rate=0.001, tenant_burst=2.0)
        with Router(config) as router:
            codes = []
            for i in range(4):
                response = router.handle(
                    {
                        "id": i,
                        "op": "compile",
                        "source": AXPY,
                        "tenant": "acme",
                    }
                )
                codes.append(
                    None if response["ok"] else response["error"]["code"]
                )
            assert codes == [
                None,
                None,
                protocol.QUOTA_EXCEEDED,
                protocol.QUOTA_EXCEEDED,
            ]

    def test_tenants_are_isolated(self):
        config = quiet_config(tenant_rate=0.001, tenant_burst=1.0)
        with Router(config) as router:
            assert router.handle(
                {"id": 1, "op": "compile", "source": AXPY, "tenant": "a"}
            )["ok"]
            assert router.handle(
                {"id": 2, "op": "compile", "source": AXPY, "tenant": "b"}
            )["ok"]
            blocked = router.handle(
                {"id": 3, "op": "compile", "source": AXPY, "tenant": "a"}
            )
            assert blocked["error"]["code"] == protocol.QUOTA_EXCEEDED
            assert blocked["error"]["retryable"] is True

    def test_control_plane_is_never_charged(self):
        config = quiet_config(tenant_rate=0.001, tenant_burst=1.0)
        with Router(config) as router:
            router.handle(
                {"id": 1, "op": "compile", "source": AXPY, "tenant": "a"}
            )
            for _ in range(3):
                assert router.handle({"op": "stats", "tenant": "a"})["ok"]

    def test_quota_balances_appear_in_stats(self):
        config = quiet_config(tenant_rate=1.0, tenant_burst=5.0)
        with Router(config) as router:
            router.handle(
                {"id": 1, "op": "compile", "source": AXPY, "tenant": "acme"}
            )
            stats = router.handle({"op": "stats"})["result"]
            assert "acme" in stats["router"]["quotas"]


class _LaggyShard:
    """Wraps a LocalShard, delaying every response by ``delay_s``."""

    def __init__(self, inner: LocalShard, delay_s: float):
        self._inner = inner
        self.delay_s = delay_s

    def __getattr__(self, name):
        return getattr(self._inner, name)

    # ``state`` must stay readable/writable through the wrapper.
    @property
    def state(self):
        return self._inner.state

    @state.setter
    def state(self, value):
        self._inner.state = value

    def try_submit(self, request: dict):
        inner_future = self._inner.try_submit(request)
        if inner_future is None:
            return None
        outer: Future = Future()

        def relay(done: Future) -> None:
            def fire() -> None:
                try:
                    outer.set_result(done.result())
                except Exception as exc:  # pragma: no cover - transport death
                    outer.set_exception(exc)

            threading.Timer(self.delay_s, fire).start()

        inner_future.add_done_callback(relay)
        return outer


class _DeadShard:
    """A shard whose transport is gone: ``try_submit`` always fails."""

    kind = "local"

    def __init__(self, index: int):
        self.index = index
        self.shard_id = f"shard-{index}"
        self.state = "up"
        self.config = BrokerConfig(workers=1)

    def try_submit(self, request: dict):
        return None

    def stop(self, timeout: float = 60.0) -> None:
        pass

    def telemetry(self, timeout: float = 5.0):
        return None

    def stats_snapshot(self, timeout: float = 5.0):
        return None

    def trace_snapshot(self, request: dict, timeout: float = 5.0):
        return None


class TestSlowShard:
    def test_slow_owner_answers_its_own_key(self):
        """A slow shard is not a lost one: the request waits for its
        owner, and the next rank never sees it."""
        request = {"id": 1, "op": "compile", "source": AXPY}
        slow = expected_shard(request)
        other = 1 - slow
        broker_config = BrokerConfig(workers=1)
        shards = [LocalShard(0, broker_config), LocalShard(1, broker_config)]
        shards[slow] = _LaggyShard(shards[slow], delay_s=0.3)
        with Router(quiet_config(), shards=shards) as router:
            t0 = time.monotonic()
            response = router.submit(request).result(timeout=30)
            elapsed = time.monotonic() - t0
            assert response["ok"], response
            assert response["shard"] == slow
            assert elapsed >= 0.3
            metrics = router.metrics
            assert metrics.get(f"cluster.routed.shard-{slow}").value == 1
            assert metrics.get(f"cluster.routed.shard-{other}").value == 0
            assert metrics.get("cluster.failovers").value == 0


class TestFailover:
    def test_dead_primary_fails_over_to_next_rank(self):
        request = {"id": 1, "op": "compile", "source": AXPY}
        dead = expected_shard(request)
        live = 1 - dead
        shards: list = [None, None]
        shards[dead] = _DeadShard(dead)
        shards[live] = LocalShard(live, BrokerConfig(workers=1))
        with Router(quiet_config(), shards=shards) as router:
            response = router.handle(request)
            assert response["ok"], response
            assert response["shard"] != dead
            assert router.metrics.get("cluster.failovers").value >= 1

    def test_all_shards_dead_answers_shard_unavailable(self):
        shards = [_DeadShard(0), _DeadShard(1)]
        with Router(quiet_config(), shards=shards) as router:
            response = router.handle(
                {"id": 1, "op": "compile", "source": AXPY}
            )
            assert not response["ok"]
            assert response["error"]["code"] == protocol.SHARD_UNAVAILABLE
            assert response["error"]["retryable"] is True

    def test_no_live_shard_answers_shard_unavailable(self):
        shards = [_DeadShard(0), _DeadShard(1)]
        shards[0].state = "down"
        shards[1].state = "down"
        with Router(quiet_config(), shards=shards) as router:
            response = router.handle(
                {"id": 1, "op": "compile", "source": AXPY}
            )
            assert response["error"]["code"] == protocol.SHARD_UNAVAILABLE


def drain_or_kill(router: Router) -> list[int]:
    """Drain a process-shard router within a minute, then kill any daemon
    still running; returns the indices of the shards that were."""
    stopper = threading.Thread(target=router.drain, daemon=True)
    stopper.start()
    stopper.join(timeout=60)
    running = [s.index for s in router.shards if s._proc.poll() is None]
    for shard in router.shards:
        if shard._proc.poll() is None:
            shard._proc.kill()
            shard._proc.wait(timeout=10)
    assert not stopper.is_alive()
    return running


class TestProcessShards:
    def test_drain_removes_the_directories_the_router_made(self):
        """Without a configured socket or cache directory the router
        makes both; draining it removes them."""
        router = Router(quiet_config(process_shards=True))
        socket_dir = os.path.dirname(router.shards[0].socket_path)
        cache_dir = router.shards[0].config.cache_dir
        try:
            assert os.path.isdir(socket_dir) and os.path.isdir(cache_dir)
            response = router.submit({"op": "compile", "source": AXPY}).result(
                timeout=60
            )
            assert response["ok"], response
        finally:
            running = drain_or_kill(router)
        assert running == []
        assert not os.path.exists(socket_dir)
        assert not os.path.exists(cache_dir)
        assert router.metrics.get("cluster.temp_dir_errors") is None

    def test_telemetry_probes_are_not_counted_as_requests(self, tmp_path):
        """Each frame the router builds sends every live daemon a
        ``watch`` probe; a shard row's total counts client requests only."""
        config = quiet_config(
            process_shards=True,
            broker=BrokerConfig(workers=1, cache_dir=str(tmp_path / "cache")),
            socket_dir=str(tmp_path),
        )
        router = Router(config)
        try:
            for i in range(4):
                request = {"op": "compile", "source": source_variant(i)}
                assert router.submit(request).result(timeout=60)["ok"]
            totals = [
                [row["requests_total"] for row in router._frame()["shards"]]
                for _ in range(5)
            ]
        finally:
            running = drain_or_kill(router)
        assert running == []
        assert sum(totals[0]) == 4
        assert totals == [totals[0]] * 5

    def test_killed_daemon_fails_over_to_the_other_shard(self, tmp_path):
        """Two real ``repro serve --socket`` daemons: SIGKILL the one
        that owns a key, and the next request for it is answered by the
        other shard from the shared disk tier."""
        config = quiet_config(
            process_shards=True,
            broker=BrokerConfig(workers=1, cache_dir=str(tmp_path / "cache")),
            socket_dir=str(tmp_path),
        )
        router = Router(config)
        try:
            owned = {}
            for i in range(16):
                request = {"op": "compile", "source": source_variant(i)}
                owner = expected_shard(request)
                if owner not in owned:
                    response = router.submit(dict(request)).result(timeout=60)
                    assert response["ok"] and response["shard"] == owner
                    owned[owner] = request
                if len(owned) == 2:
                    break
            victim = router.shards[0]
            victim._proc.kill()
            victim._proc.wait(timeout=10)
            response = router.submit(dict(owned[0])).result(timeout=60)
            assert response["ok"], response
            assert response["shard"] == 1
            assert response["result"]["cached"] == "disk"
            assert router.metrics.get("cluster.failovers").value >= 1
        finally:
            running = drain_or_kill(router)
        assert running == []
        assert router.metrics.get("cluster.shard_stop_errors") is None
        # Directories the caller configured outlive the router.
        assert (tmp_path / "cache").is_dir() and tmp_path.is_dir()


class TestDrainRestart:
    def test_drain_restart_keeps_the_disk_tier_warm(self, tmp_path):
        config = quiet_config(
            broker=BrokerConfig(workers=1, cache_dir=str(tmp_path / "cache"))
        )
        request = {"op": "compile", "source": AXPY}
        owner = expected_shard(request)
        with Router(config) as router:
            first = router.handle({"id": 1, **request})
            assert first["ok"] and first["result"]["cached"] is None
            result = router.drain_shard(owner, restart=True)
            assert result["state"] == "up"
            assert result["restarted"] is True
            second = router.handle({"id": 2, **request})
            assert second["ok"]
            assert second["shard"] == owner  # same placement after rejoin
            # The restarted broker's memory tier is empty; the shared
            # disk namespace is what carries the key across the cycle.
            assert second["result"]["cached"] == "disk"
            cluster = router.telemetry_snapshot()["cluster"]
            assert cluster["drains"] == 1 and cluster["restarts"] == 1

    def test_a_shard_that_fails_to_stop_is_counted_and_the_drain_goes_on(
        self, monkeypatch
    ):
        router = Router(quiet_config())
        stuck = router.shards[0]
        real_stop = stuck.stop

        def refuse(timeout: float = 60.0) -> None:
            raise OSError("shard process is gone")

        monkeypatch.setattr(stuck, "stop", refuse)
        try:
            router.drain()
        finally:
            real_stop()
        metrics = router.metrics
        assert metrics.get("cluster.shard_stop_errors").value == 1
        assert metrics.get("cluster.shard_stop_errors.OSError").value == 1
        assert [s.state for s in router.shards] == ["down", "down"]
        assert router.shards[1].broker is None  # the next shard was stopped

    def test_draining_shard_takes_no_new_routes(self, tmp_path):
        config = quiet_config(
            broker=BrokerConfig(workers=1, cache_dir=str(tmp_path / "cache"))
        )
        request = {"op": "compile", "source": AXPY}
        owner = expected_shard(request)
        with Router(config) as router:
            result = router.drain_shard(owner)  # no restart
            assert result["state"] == "down"
            response = router.handle({"id": 1, **request})
            assert response["ok"]
            assert response["shard"] != owner

    def test_cannot_drain_the_last_live_shard(self):
        with Router(quiet_config()) as router:
            router.drain_shard(0)
            with pytest.raises(BadRequestError, match="last live shard"):
                router.drain_shard(1)

    def test_last_shard_drain_with_restart_is_allowed(self, tmp_path):
        config = quiet_config(
            shards=1,
            broker=BrokerConfig(workers=1, cache_dir=str(tmp_path / "cache")),
        )
        with Router(config) as router:
            result = router.drain_shard(0, restart=True)
            assert result["state"] == "up"
            assert router.handle(
                {"id": 1, "op": "compile", "source": AXPY}
            )["ok"]

    def test_unknown_and_non_up_shards_are_rejected(self):
        with Router(quiet_config()) as router:
            with pytest.raises(BadRequestError, match="no shard 7"):
                router.drain_shard(7)
            router.drain_shard(0)
            with pytest.raises(BadRequestError, match="down, not up"):
                router.drain_shard(0)

    def test_drain_validation_is_in_the_protocol(self):
        with pytest.raises(protocol.ServeError, match="shard"):
            protocol.validate_request({"op": "drain"})
        with pytest.raises(protocol.ServeError):
            protocol.validate_request({"op": "drain", "shard": True})
        with pytest.raises(protocol.ServeError, match="restart"):
            protocol.validate_request(
                {"op": "drain", "shard": 0, "restart": "yes"}
            )

    def test_single_broker_daemon_rejects_the_drain_op(self):
        with Broker(BrokerConfig(workers=1)) as broker:
            response = broker.handle({"id": 1, "op": "drain", "shard": 0})
        assert not response["ok"]
        assert response["error"]["code"] == protocol.BAD_REQUEST
        assert "cluster" in response["error"]["message"]


class TestTracePropagation:
    def test_trace_id_travels_router_to_shard(self):
        with Router(quiet_config()) as router:
            response = router.handle(
                {
                    "id": 1,
                    "op": "compile",
                    "source": AXPY,
                    "trace_id": "trace-cluster-1",
                }
            )
            assert response["ok"]
            assert response["trace_id"] == "trace-cluster-1"
            found = router.handle(
                {"id": 2, "op": "trace", "trace_id": "trace-cluster-1"}
            )
            assert found["ok"]
            record = found["result"]
            assert record["found"] is True
            assert record["shard"] == response["shard"]

    def test_unknown_trace_id_reports_not_found(self):
        with Router(quiet_config()) as router:
            result = router.handle(
                {"id": 1, "op": "trace", "trace_id": "zzz-missing"}
            )["result"]
            assert result["found"] is False and result["record"] is None

    def test_listing_fans_out_per_shard(self):
        with Router(quiet_config()) as router:
            router.handle({"id": 1, "op": "compile", "source": AXPY})
            listing = router.handle({"id": 2, "op": "trace"})["result"]
            assert {row["shard"] for row in listing["shards"]} == {0, 1}


class TestRollups:
    def test_stats_document_shape(self):
        with Router(quiet_config()) as router:
            router.handle({"id": 1, "op": "compile", "source": AXPY})
            stats = router.handle({"op": "stats"})["result"]
            assert stats["router"]["shards"] == 2
            assert stats["router"]["up"] == 2
            assert stats["router"]["process_shards"] is False
            assert len(stats["shards"]) == 2
            for row in stats["shards"]:
                assert row["state"] == "up"
                assert "stats" in row

    def test_telemetry_frame_is_broker_shaped_plus_cluster(self):
        with Router(quiet_config()) as router:
            router.handle({"id": 1, "op": "compile", "source": AXPY})
            frame = router.telemetry_snapshot()
            # Every key the broker's frame carries (repro top contract).
            for key in (
                "ts", "uptime_s", "workers", "queue_limit", "queue_depth",
                "stopping", "requests", "requests_total", "rejected",
                "deadline_exceeded", "scalar_fallbacks", "cache",
                "placement", "codegen_tiers", "latency_ms", "flight_recorded",
            ):
                assert key in frame, key
            assert frame["requests"]["compile"] == 1
            assert frame["cluster"]["shards"] == 2
            rows = frame["shards"]
            assert [row["shard"] for row in rows] == [0, 1]
            assert sum(row["routed"] for row in rows) == 1

    def test_cumulative_totals_survive_a_drain_restart(self, tmp_path):
        """A restarted shard counts from zero; the router keeps what the
        drained shard had counted, so no total goes down."""
        config = quiet_config(
            broker=BrokerConfig(workers=1, cache_dir=str(tmp_path / "cache"))
        )
        runs = {}
        for i in range(16):
            request = {"op": "run", "source": source_variant(i), "env": {"n": 64}}
            runs.setdefault(expected_shard(request), request)
            if len(runs) == 2:
                break
        with Router(config) as router:
            for request in runs.values():
                assert router.handle(dict(request))["ok"]
            before = router.telemetry_snapshot()
            router.drain_shard(1, restart=True)
            after = router.telemetry_snapshot()
        assert sum(before["codegen_tiers"].values()) == 2
        for key in ("scalar_fallbacks", "deadline_exceeded"):
            assert after[key] == before[key], key
        for key in ("codegen_tiers", "placement"):
            assert after[key] == before[key], key
        assert [row["requests_total"] for row in after["shards"]] == [
            row["requests_total"] for row in before["shards"]
        ] == [1, 1]

    def test_flight_recorded_counts_the_routers_own_records(self):
        with Router(quiet_config()) as router:
            shards = router.telemetry_snapshot()["flight_recorded"]
            refused = router.handle({"id": 1, "op": "compile"})  # no source
            assert refused["error"]["code"] == protocol.BAD_REQUEST
            assert router.flight.recorded == 1
            frame = router.telemetry_snapshot()
            assert frame["flight_recorded"] == shards + 1

    def test_router_drives_the_load_generator_unchanged(self, tmp_path):
        """The router duck-types the broker surface, so ``run_load``
        (and therefore ``repro loadgen``) needs no cluster-specific
        code — and its report gains the per-shard balance stanza."""
        from repro.loadgen import LoadProfile, run_load

        config = quiet_config(
            broker=BrokerConfig(workers=2, cache_dir=str(tmp_path / "cache"))
        )
        profile = LoadProfile(
            rate_rps=20.0,
            duration_s=0.5,
            arrival="fixed",
            benchmarks=("303.ostencil", "355.seismic"),
            seed=0,
            tenant="acme",
        )
        with Router(config) as router:
            report = run_load(profile, broker=router)
        assert report["requests"]["errors"] == 0
        assert sum(report["per_shard"].values()) == 10
        balance = report["shard_balance"]
        assert balance is not None
        assert balance["shards_seen"] == 2

    def test_shutdown_op_marks_stopping(self):
        router = Router(quiet_config())
        try:
            response = router.handle({"id": 1, "op": "shutdown"})
            assert response["ok"] and response["result"]["stopping"] is True
        finally:
            router.drain()
        assert router.handle({"id": 2, "op": "stats"})["error"]["code"] == (
            protocol.SHUTTING_DOWN
        )


class TestAdmission:
    def test_queue_full_when_router_capacity_exhausted(self):
        config = quiet_config(router_workers=1, queue_limit=0)
        shards = [_SlowDeadlockFreeShard(0), _SlowDeadlockFreeShard(1)]
        with Router(config, shards=shards) as router:
            first = router.submit({"id": 1, "op": "compile", "source": AXPY})
            # Router capacity is 1: the next admission must bounce.
            deadline = time.monotonic() + 2.0
            while router.pending < 1 and time.monotonic() < deadline:
                time.sleep(0.005)
            second = router.handle(
                {"id": 2, "op": "compile", "source": AXPY}
            )
            assert second["error"]["code"] == protocol.QUEUE_FULL
            assert first.result(timeout=10)["ok"]

    def test_tenant_field_is_validated(self):
        with Router(quiet_config()) as router:
            response = router.handle(
                {"id": 1, "op": "compile", "source": AXPY, "tenant": 7}
            )
            assert response["error"]["code"] == protocol.BAD_REQUEST


class _SlowDeadlockFreeShard(_DeadShard):
    """Answers every request after a short sleep (without consuming a
    broker worker), so admission tests can hold the router pool busy."""

    def try_submit(self, request: dict):
        future: Future = Future()

        def fire() -> None:
            future.set_result(
                protocol.ok_response(request.get("id"), {"cached": False})
            )

        threading.Timer(0.3, fire).start()
        return future
