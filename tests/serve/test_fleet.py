"""Fleet serving: placement-aware routing across a multi-arch broker.

The acceptance property: a broker configured with a two-arch fleet
routes each benchmark request to the *modeled-best* arch — the placement
decision's winner is exactly the candidate with the lowest modeled time,
never a worse one.
"""

import time

import pytest

from repro.errors import ConfigError, UnknownArchError, raise_for_response
from repro.feedback.driver import fault_scope
from repro.obs.tracer import Tracer
from repro.serve.broker import Broker, BrokerConfig

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


def modeled_best(placement: dict) -> str:
    return min(placement["candidates"], key=lambda c: c["model_ms"])["arch"]


class TestFleetConfig:
    def test_fleet_names_normalized_at_construction(self):
        with Broker(BrokerConfig(fleet=("kepler", "mi250"))) as broker:
            assert broker.stats()["broker"]["fleet"] == [
                "kepler-k20xm",
                "cdna2-mi250",
            ]

    def test_bad_fleet_name_fails_at_construction(self):
        with pytest.raises(ConfigError, match="unknown GPU arch"):
            Broker(BrokerConfig(fleet=("kepler", "h100")))

    def test_no_fleet_means_no_placement(self):
        with Broker(BrokerConfig(workers=1)) as broker:
            response = broker.handle(
                {"id": 1, "op": "run", "source": SRC, "env": {"n": 256}}
            )
        assert response["ok"]
        assert "placement" not in response["result"]
        assert response["result"]["arch"] == "kepler-k20xm"


class TestRouting:
    def test_run_routed_to_modeled_best_arch(self):
        with make_broker() as broker:
            response = broker.handle(
                {"id": 1, "op": "run", "source": SRC, "env": {"n": 256}}
            )
        assert response["ok"]
        result = response["result"]
        placement = result["placement"]
        assert [c["arch"] for c in placement["candidates"]] == list(FLEET)
        assert result["arch"] == placement["arch"] == modeled_best(placement)
        assert placement["reason"] == "modeled"

    def test_compile_routed_and_reports_placement(self):
        with make_broker() as broker:
            response = broker.handle(
                {"id": 1, "op": "compile", "source": SRC, "env": {"n": 4096}}
            )
        result = response["result"]
        assert result["arch"] == modeled_best(result["placement"])
        assert result["timing"]["total_ms"] > 0

    def test_every_benchmark_run_routed_to_modeled_best(self):
        """The acceptance sweep: each benchmark's compile request lands on
        the candidate with the lowest modeled time at its problem size."""
        from repro.bench import SPEC, load_all

        load_all()
        names = ("303.ostencil", "304.olbm", "354.cg")
        with make_broker(workers=4) as broker:
            for request_id, name in enumerate(names):
                spec = SPEC.get(name)
                response = broker.handle(
                    {
                        "id": request_id,
                        "op": "compile",
                        "source": spec.source,
                        "env": dict(spec.env),
                    }
                )
                assert response["ok"], response
                result = response["result"]
                placement = result["placement"]
                assert len(placement["candidates"]) == len(FLEET)
                assert result["arch"] == modeled_best(placement)
                best_ms = min(
                    c["model_ms"] for c in placement["candidates"]
                )
                assert placement["model_ms"] == best_ms

    def test_compile_without_env_skips_placement(self):
        # No problem size -> the timing model cannot rank the fleet.
        with make_broker() as broker:
            response = broker.handle(
                {"id": 1, "op": "compile", "source": SRC}
            )
        assert response["ok"]
        assert "placement" not in response["result"]


class TestPinnedArch:
    def test_pinned_arch_skips_the_policy(self):
        with make_broker() as broker:
            response = broker.handle(
                {
                    "id": 1,
                    "op": "run",
                    "source": SRC,
                    "env": {"n": 256},
                    "arch": "fermi",
                }
            )
            pinned = broker.metrics.get("serve.placement.pinned").value
        result = response["result"]
        assert result["arch"] == "fermi-like"
        assert "placement" not in result
        assert pinned == 1

    def test_pinned_arch_may_be_outside_the_fleet(self):
        with make_broker() as broker:
            response = broker.handle(
                {"id": 1, "op": "compile", "source": SRC, "arch": "fermi-like"}
            )
        assert response["result"]["arch"] == "fermi-like"


class TestUnknownArch:
    def test_unknown_arch_is_a_permanent_protocol_error(self):
        with make_broker() as broker:
            response = broker.handle(
                {"id": 1, "op": "compile", "source": SRC, "arch": "h100"}
            )
        assert not response["ok"]
        error = response["error"]
        assert error["code"] == "unknown_arch"
        assert error["retryable"] is False
        assert "cdna2-mi250" in error["message"]
        assert "fleet" in error["message"]

    def test_client_helper_raises_typed_error(self):
        with make_broker() as broker:
            response = broker.handle(
                {"id": 1, "op": "run", "source": SRC, "arch": "h100"}
            )
        with pytest.raises(UnknownArchError, match="registered profiles"):
            raise_for_response(response)

    def test_non_string_arch_rejected_by_validation(self):
        with make_broker() as broker:
            response = broker.handle(
                {"id": 1, "op": "compile", "source": SRC, "arch": 42}
            )
        assert response["error"]["code"] == "bad_request"


class TestObservability:
    def test_placement_metrics_and_span(self):
        tracer = Tracer(enabled=True)
        with make_broker() as broker:
            with tracer.activate():
                broker.handle(
                    {"id": 1, "op": "run", "source": SRC, "env": {"n": 256}}
                )
            decisions = broker.metrics.get("serve.placement.decisions").value
            chosen = {
                arch: broker.metrics.get(f"serve.placement.chosen.{arch}")
                for arch in FLEET
            }
            chosen = {
                arch: int(metric.value)
                for arch, metric in chosen.items()
                if metric is not None
            }
        assert decisions == 1
        spans = [s for s in tracer.spans if s.name == "placement"]
        assert len(spans) == 1
        assert spans[0].args["arch"] in FLEET
        assert spans[0].args["fleet"] == ",".join(FLEET)
        assert sum(chosen.values()) == 1

    def test_placement_cost_amortized_by_the_shared_cache(self):
        with make_broker() as broker:
            first = broker.handle(
                {"id": 1, "op": "compile", "source": SRC, "env": {"n": 4096}}
            )
            second = broker.handle(
                {"id": 2, "op": "compile", "source": SRC, "env": {"n": 4096}}
            )
        assert first["result"]["arch"] == second["result"]["arch"]
        # The chosen variant was already compiled by placement itself.
        assert second["result"]["cached"] == "memory"


class TestFleetTuneOp:
    def test_tune_searches_the_fleet_and_reports_per_arch_bests(self):
        with make_broker() as broker:
            response = broker.handle(
                {
                    "id": 1,
                    "op": "tune",
                    "source": SRC,
                    "env": {"n": 4096},
                    "strategy": "exhaustive",
                }
            )
        assert response["ok"], response
        result = response["result"]
        assert set(result["per_arch_best"]) == set(FLEET)
        archs = {t["point"]["arch"] for t in result["trials"]}
        assert archs == {None, "cdna2-mi250"}  # None = the base (kepler)

    def test_pinned_tune_stays_on_one_arch(self):
        with make_broker() as broker:
            response = broker.handle(
                {
                    "id": 1,
                    "op": "tune",
                    "source": SRC,
                    "env": {"n": 4096},
                    "strategy": "exhaustive",
                    "arch": "cdna2-mi250",
                }
            )
        result = response["result"]
        assert set(result["per_arch_best"]) == {"cdna2-mi250"}


class TestPlacementDeadline:
    """Placement compiles every fleet variant inside the request's
    deadline: a budget that runs out there answers ``deadline_exceeded``
    at the next backend call instead of compiling the rest."""

    @pytest.mark.parametrize("op", ["compile", "run"])
    def test_budget_spent_in_placement_stops_it(self, op):
        calls = []

        def slow_backend(kernel, iteration):
            calls.append(kernel)
            time.sleep(0.05)

        with make_broker(workers=1) as broker, fault_scope(slow_backend):
            response = broker.handle(
                {"id": 1, "op": op, "source": SRC, "env": {"n": 4096},
                 "deadline_ms": 20}
            )
        assert not response["ok"]
        assert response["error"]["code"] == "deadline_exceeded"
        assert len(calls) == 1
        assert broker.metrics.get("serve.deadline_exceeded").value == 1
        assert broker.metrics.get("serve.placement.errors") is None
