"""The ``tune`` op of the serve protocol: validation, execution through
the broker, deadline behavior, and re-tunes from the shared disk cache."""

import pytest

from repro.serve import protocol
from repro.serve.broker import Broker, BrokerConfig
from repro.serve.protocol import ServeError, validate_request

SRC = """
kernel axpy(const double x[1:n], double y[1:n], int n) {
  #pragma acc kernels loop gang vector(64)
  for (i = 1; i < n; i++) {
    y[i] = x[i] + y[i];
  }
}
"""


def tune_request(request_id=1, **fields):
    req = {"id": request_id, "op": "tune", "source": SRC, "env": {"n": 64},
           "strategy": "exhaustive", "budget": 4}
    req.update(fields)
    return req


class TestValidation:
    def test_tune_is_a_valid_op(self):
        assert "tune" in protocol.VALID_OPS
        assert validate_request(tune_request()) is not None

    def test_source_required(self):
        with pytest.raises(ServeError, match="source"):
            validate_request({"op": "tune", "env": {"n": 4}})

    def test_env_required_and_non_empty(self):
        with pytest.raises(ServeError, match="env"):
            validate_request({"op": "tune", "source": SRC})
        with pytest.raises(ServeError, match="env"):
            validate_request({"op": "tune", "source": SRC, "env": {}})

    def test_budget_must_be_a_positive_int(self):
        for bad in (0, -1, "4", True, 1.5):
            with pytest.raises(ServeError, match="budget"):
                validate_request(tune_request(budget=bad))

    def test_launches_must_be_a_positive_int(self):
        with pytest.raises(ServeError, match="launches"):
            validate_request(tune_request(launches=0))

    def test_strategy_must_be_a_string(self):
        with pytest.raises(ServeError, match="strategy"):
            validate_request(tune_request(strategy=7))


class TestBrokerTune:
    def test_tune_round_trip(self):
        with Broker(BrokerConfig(workers=2)) as broker:
            response = broker.handle(tune_request())
        assert response["ok"]
        result = response["result"]
        assert result["best"]["model_ms"] <= result["reference"]["model_ms"]
        assert 0 < len(result["trials"]) <= 4

    def test_unknown_strategy_maps_to_tune_error(self):
        with Broker(BrokerConfig(workers=1)) as broker:
            response = broker.handle(tune_request(strategy="zzz"))
        assert not response["ok"]
        assert response["error"]["code"] == protocol.TUNE_ERROR

    def test_parse_error_keeps_its_code(self):
        with Broker(BrokerConfig(workers=1)) as broker:
            response = broker.handle(tune_request(source="kernel oops( {"))
        assert not response["ok"]
        assert response["error"]["code"] == protocol.PARSE_ERROR

    def test_unknown_config_rejected(self):
        with Broker(BrokerConfig(workers=1)) as broker:
            response = broker.handle(tune_request(config="zzz"))
        assert not response["ok"]
        assert response["error"]["code"] == protocol.UNKNOWN_CONFIG

    def test_restarted_broker_answers_a_repeated_tune_from_disk(
        self, tmp_path
    ):
        config = BrokerConfig(workers=2, cache_dir=str(tmp_path / "cache"))
        with Broker(config) as broker:
            cold = broker.handle(tune_request())
        with Broker(config) as broker:
            warm = broker.handle(tune_request(request_id=2))
            compiled = broker.metrics.get("session.compilations").value
            disk_hits = broker.disk_cache.hits
        assert cold["ok"] and warm["ok"]
        assert compiled == 0
        assert disk_hits == len(warm["result"]["trials"])
        assert warm["result"]["best"] == cold["result"]["best"]
        assert warm["result"]["trials"] == cold["result"]["trials"]

    def test_tiny_deadline_yields_deadline_exceeded(self):
        with Broker(BrokerConfig(workers=1)) as broker:
            response = broker.handle(tune_request(deadline_ms=0.011))
        assert not response["ok"]
        assert response["error"]["code"] in (
            protocol.DEADLINE_EXCEEDED, protocol.TUNE_ERROR,
        )
