"""The unified error hierarchy and its 1:1 serve-protocol code mapping.

The contract under test: every failure the toolchain raises descends
from :class:`repro.errors.ReproError`; every wire error code maps to
exactly one exception type, in both directions; and a ``repro submit``
failure round-trips through the broker to the *same* exception type the
in-process call would have raised.
"""

import pytest

import repro.errors as errors
from repro.errors import (
    BadRequestError,
    CacheError,
    CompileFailedError,
    ConfigError,
    ExecutionFailedError,
    InternalServiceError,
    ProtocolError,
    QueueFullError,
    QuotaExceededError,
    ReproError,
    ShardUnavailableError,
    ShuttingDownError,
    TimingUnavailable,
    TuneError,
    UnknownConfigError,
    code_for,
    error_for,
    raise_for_response,
)
from repro.serve import protocol


class TestHierarchy:
    def test_every_family_descends_from_repro_error(self):
        from repro.feedback.driver import FeedbackError, FeedbackTimeout
        from repro.lang.errors import MiniAccError, ParseError

        for cls in (
            CacheError, ConfigError, TuneError, ProtocolError,
            MiniAccError, ParseError, FeedbackError, FeedbackTimeout,
        ):
            assert issubclass(cls, ReproError), cls

    def test_value_error_compatibility_is_kept(self):
        assert issubclass(CacheError, ValueError)
        assert issubclass(ConfigError, ValueError)

    def test_lazy_reexports_resolve(self):
        assert errors.MiniAccError is not None
        assert errors.FeedbackTimeout is not None
        assert errors.ServeError is protocol.ServeError
        with pytest.raises(AttributeError):
            errors.NoSuchError

    def test_dir_lists_reexports(self):
        listing = dir(errors)
        assert "MiniAccError" in listing and "TuneError" in listing


class TestCodeMapping:
    def test_every_protocol_code_maps_to_exactly_one_type(self):
        codes = [
            protocol.BAD_JSON, protocol.BAD_REQUEST, protocol.UNKNOWN_CONFIG,
            protocol.UNKNOWN_ARCH, protocol.PARSE_ERROR, protocol.QUEUE_FULL,
            protocol.DEADLINE_EXCEEDED, protocol.TRANSIENT_FAILURE,
            protocol.COMPILE_ERROR, protocol.EXECUTION_ERROR,
            protocol.TUNE_ERROR, protocol.SHUTTING_DOWN, protocol.INTERNAL,
            protocol.QUOTA_EXCEEDED, protocol.SHARD_UNAVAILABLE,
            protocol.TIMING_UNAVAILABLE,
        ]
        seen = {}
        for code in codes:
            exc = error_for(code, "msg")
            assert isinstance(exc, ReproError), code
            seen.setdefault(type(exc), set()).add(code)
        # bad_json/bad_request legitimately share BadRequestError; every
        # other type owns exactly one code.
        for cls, owned in seen.items():
            if cls is BadRequestError:
                assert owned == {protocol.BAD_JSON, protocol.BAD_REQUEST}
            else:
                assert len(owned) == 1, (cls, owned)

    def test_code_for_inverts_error_for(self):
        for code in (
            protocol.UNKNOWN_CONFIG, protocol.QUEUE_FULL, protocol.PARSE_ERROR,
            protocol.DEADLINE_EXCEEDED, protocol.COMPILE_ERROR,
            protocol.EXECUTION_ERROR, protocol.TUNE_ERROR,
            protocol.SHUTTING_DOWN, protocol.INTERNAL,
            protocol.QUOTA_EXCEEDED, protocol.SHARD_UNAVAILABLE,
            protocol.TIMING_UNAVAILABLE,
        ):
            assert code_for(error_for(code, "msg")) == code

    def test_subclasses_map_to_the_family_code(self):
        from repro.lang.errors import LexError, ParseError

        assert code_for(ParseError("x")) == protocol.PARSE_ERROR
        assert code_for(LexError("x")) == protocol.PARSE_ERROR

    def test_tune_error_code_agrees_with_the_tune_package(self):
        from repro.tune import tune_error_code

        assert code_for(TuneError("x")) == tune_error_code == protocol.TUNE_ERROR

    def test_unknown_inputs_degrade_to_internal(self):
        assert isinstance(error_for("zzz_new_code", "m"), InternalServiceError)
        assert code_for(KeyError("zzz")) == protocol.INTERNAL

    def test_protocol_error_carries_its_own_code(self):
        assert code_for(QueueFullError("full")) == protocol.QUEUE_FULL
        assert code_for(ShuttingDownError("bye")) == protocol.SHUTTING_DOWN
        assert QueueFullError.retryable is True
        assert CompileFailedError.retryable is False

    def test_cluster_codes_are_retryable(self):
        # Both answer conditions that clear on their own (quota refill,
        # a shard rejoining), so clients are told to back off and retry.
        assert code_for(QuotaExceededError("slow down")) == (
            protocol.QUOTA_EXCEEDED
        )
        assert code_for(ShardUnavailableError("gone")) == (
            protocol.SHARD_UNAVAILABLE
        )
        assert QuotaExceededError.retryable is True
        assert ShardUnavailableError.retryable is True
        assert protocol.QUOTA_EXCEEDED in protocol.RETRYABLE_CODES
        assert protocol.SHARD_UNAVAILABLE in protocol.RETRYABLE_CODES


class TestRaiseForResponse:
    def test_ok_response_returns_result(self):
        response = protocol.ok_response(1, {"answer": 42})
        assert raise_for_response(response) == {"answer": 42}

    def test_error_response_raises_the_mapped_type(self):
        response = protocol.error_response(
            1, protocol.UNKNOWN_CONFIG, "no such config"
        )
        with pytest.raises(UnknownConfigError, match="no such config"):
            raise_for_response(response)

    def test_retryable_verdict_is_attached(self):
        response = protocol.error_response(
            1, protocol.QUEUE_FULL, "busy", retryable=True
        )
        with pytest.raises(QueueFullError) as exc_info:
            raise_for_response(response)
        assert exc_info.value.retryable is True

    def test_non_response_is_a_bad_request(self):
        with pytest.raises(BadRequestError):
            raise_for_response({"nope": 1})

    def test_tune_error_round_trips(self):
        response = protocol.error_response(
            7, protocol.TUNE_ERROR, "unknown strategy 'zzz'"
        )
        with pytest.raises(TuneError, match="unknown strategy"):
            raise_for_response(response)


class TestBrokerRoundTrip:
    """A broker failure raises the same type in-process and over the wire."""

    def test_parse_error_round_trips_through_the_broker(self):
        from repro.lang.errors import MiniAccError
        from repro.serve.broker import Broker, BrokerConfig

        with Broker(BrokerConfig(workers=1)) as broker:
            response = broker.handle(
                {"id": 1, "op": "compile", "source": "kernel oops( {"}
            )
        assert not response["ok"]
        with pytest.raises(MiniAccError):
            raise_for_response(response)

    def test_tune_validation_error_round_trips(self):
        from repro.serve.broker import Broker, BrokerConfig

        src = """
kernel axpy(const double x[1:n], double y[1:n], int n) {
  #pragma acc kernels loop gang vector(64)
  for (i = 1; i < n; i++) {
    y[i] = x[i] + y[i];
  }
}
"""
        with Broker(BrokerConfig(workers=1)) as broker:
            response = broker.handle(
                {"id": 1, "op": "tune", "source": src, "env": {"n": 64},
                 "strategy": "zzz"}
            )
        assert not response["ok"]
        assert response["error"]["code"] == protocol.TUNE_ERROR
        with pytest.raises(TuneError, match="unknown strategy"):
            raise_for_response(response)

    def test_untimeable_compile_answers_timing_unavailable(self):
        """The compile succeeds and is cached; only the timing under this
        env is impossible (354.cg's inner loop needs ``__trips_k``)."""
        from repro.bench import SPEC, load_all
        from repro.serve.broker import Broker, BrokerConfig

        load_all()
        request = {
            "id": 1,
            "op": "compile",
            "source": SPEC.get("354.cg").source,
            "env": {"nrows": 12, "nrows1": 13, "nnz": 48},
        }
        with Broker(BrokerConfig(workers=1)) as broker:
            first = broker.handle(request)
            again = broker.handle(dict(request, id=2))
        for response in (first, again):
            assert response["error"]["code"] == protocol.TIMING_UNAVAILABLE
            assert response["error"]["retryable"] is False
            with pytest.raises(TimingUnavailable, match="trip count"):
                raise_for_response(response)
        # The repeat is a memory hit: one compilation for both requests.
        assert broker.metrics.get("session.compilations").value == 1
        assert broker.metrics.get("cache.hits").value == 1
        assert broker.metrics.get("serve.errors.unexpected") is None

    def test_unknown_kernel_name_is_a_parse_error(self):
        """A kernel the source does not define is a typed front-end error
        that names the kernels it does define, in-process and through a
        1-worker broker, for both ``compile`` and ``run``."""
        from repro.compiler import CompilerSession
        from repro.lang.errors import MiniAccError, SemanticError
        from repro.serve.broker import Broker, BrokerConfig

        src = """
kernel axpy(const double x[1:n], double y[1:n], int n) {
  #pragma acc kernels loop gang vector(64)
  for (i = 1; i < n; i++) {
    y[i] = x[i] + y[i];
  }
}
"""
        session = CompilerSession()
        with pytest.raises(SemanticError, match="'nope'.*axpy"):
            session.function(src, kernel_name="nope")
        with pytest.raises(SemanticError, match="no kernel"):
            session.function("")

        with Broker(BrokerConfig(workers=1)) as broker:
            responses = [
                broker.handle(
                    {"id": 1, "op": "compile", "source": src, "kernel": "nope"}
                ),
                broker.handle(
                    {"id": 2, "op": "run", "source": src, "kernel": "nope",
                     "env": {"n": 64}}
                ),
                broker.handle({"id": 3, "op": "compile", "source": "// none\n"}),
            ]
            unexpected = [
                name
                for name in broker.metrics.as_dict()
                if name.startswith("serve.errors.unexpected")
            ]
        for response in responses:
            assert response["error"]["code"] == protocol.PARSE_ERROR
            with pytest.raises(MiniAccError, match="no kernel"):
                raise_for_response(response)
        assert unexpected == []
