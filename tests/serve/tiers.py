"""Both serving tiers behind one constructor, for the tests that pin the
shared front door's behaviour (admission, rejection, tracing) on each.

A tier is named by its metric prefix: ``serve`` is a
:class:`~repro.serve.broker.Broker`, ``cluster`` a one-shard
:class:`~repro.serve.cluster.Router` in front of one.
"""

from repro.serve.broker import Broker, BrokerConfig
from repro.serve.cluster import ClusterConfig, Router

TIERS = ("serve", "cluster")


def front_door(tier: str, *, workers: int = 2, queue_limit: int = 32, **broker_fields):
    """A tier with ``workers`` pool threads and ``queue_limit`` waiting
    slots; ``broker_fields`` configure the broker (the router's shard,
    which gets one worker)."""
    if tier == "serve":
        return Broker(
            BrokerConfig(workers=workers, queue_limit=queue_limit, **broker_fields)
        )
    return Router(
        ClusterConfig(
            shards=1,
            broker=BrokerConfig(workers=1, **broker_fields),
            router_workers=workers,
            queue_limit=queue_limit,
        )
    )
