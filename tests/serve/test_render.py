"""The text renderers behind ``repro top`` and ``repro serve-trace``,
fed real frames and records: an in-process broker's, a two-shard
router's, and the flight record of a run that fell back to the scalar
interpreter."""

import pytest

from repro.bench import SPEC, load_all
from repro.cli import _render_record, _render_top_frame
from repro.loadgen import LoadProfile, _request_for
from repro.serve.broker import Broker, BrokerConfig
from repro.serve.cluster import ClusterConfig, Router


@pytest.fixture(scope="module")
def ep_run() -> dict:
    """A ``run`` of 352.ep: the generated code cannot reproduce its
    integer arithmetic, so ``auto`` falls back to the scalar interpreter."""
    load_all()
    request = _request_for("run", SPEC.get("352.ep"), LoadProfile())
    del request["_benchmark"]
    return dict(request, trace_id="ep-1")


def served(door, request: dict) -> str:
    response = door.handle(dict(request, id=1))
    assert response["ok"], response
    reason = response["result"]["executor"]["fallback_reason"]
    assert reason, "352.ep is expected to fall back"
    return reason


class TestRenderers:
    def test_broker_frame_and_fallback_record(self, ep_run):
        with Broker(BrokerConfig(workers=1)) as broker:
            reason = served(broker, ep_run)
            frame = broker.telemetry_snapshot()
            record = broker.flight.get("ep-1").as_dict()
        assert frame["scalar_fallbacks"] == 1
        screen = _render_top_frame(frame, None)
        assert "scalar_fallbacks 1" in screen
        assert "deadline_exceeded 0" in screen
        text = _render_record(record)
        assert text.startswith("trace ep-1  op=run  ok")
        (execute,) = [line for line in text.splitlines() if "execute" in line]
        assert f"fallback_reason={reason}" in execute

    def test_router_frame_sums_the_shards(self, ep_run):
        config = ClusterConfig(shards=2, broker=BrokerConfig(workers=1))
        with Router(config) as router:
            served(router, ep_run)
            frame = router.telemetry_snapshot()
        assert frame["scalar_fallbacks"] == 1
        screen = _render_top_frame(frame, None)
        assert "scalar_fallbacks 1" in screen
        assert "cluster   shards 2/2" in screen

    def test_router_frame_with_a_drained_shard(self, ep_run):
        """A shard drained without restart has no live frame; its row
        still renders, with the requests it served before the drain."""
        config = ClusterConfig(shards=2, broker=BrokerConfig(workers=1))
        with Router(config) as router:
            owner = router.handle(dict(ep_run, id=1))["shard"]
            router.drain_shard(owner)
            frame = router.telemetry_snapshot()
        assert frame["scalar_fallbacks"] == 1
        screen = _render_top_frame(frame, None)
        assert "cluster   shards 1/2" in screen
        (row,) = [
            line for line in screen.splitlines()
            if line.split()[:2] == [str(owner), "down"]
        ]
        assert row.split()[2:5] == ["1", "1", "-"]
