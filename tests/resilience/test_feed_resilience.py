"""Feed intake resilience: source faults, mid-batch crashes, replay.

The contract is at-least-once delivery de-duplicated by primary key:
whatever combination of source drops and node crashes interrupts a pump,
every record eventually lands exactly once in the dataset.
"""

import pytest

from repro import connect
from repro.common.config import ClusterConfig, ResilienceConfig
from repro.feeds import FeedManager, GeneratorSource
from repro.observability.metrics import get_registry
from repro.resilience import (
    FaultInjector,
    FaultRule,
    FaultSchedule,
    FeedSourceFault,
    NodeCrashFault,
)


def records(n):
    return [{"messageId": i, "text": f"msg-{i}"} for i in range(n)]


@pytest.fixture
def db(tmp_path):
    injector = FaultInjector()
    instance = connect(str(tmp_path / "db"), injector=injector)
    instance.execute("""
        CREATE TYPE MsgType AS { messageId: int, text: string };
        CREATE DATASET Messages(MsgType) PRIMARY KEY messageId;
    """)
    yield instance, injector
    injector.disarm()
    instance.close()


def start_feed(instance, data, batch_size=8):
    feeds = FeedManager(instance)
    feeds.create_feed("msgs", GeneratorSource(iter(data)),
                      batch_size=batch_size)
    feeds.connect_feed("msgs", "Messages")
    feeds.start_feed("msgs")
    return feeds


COUNT = "SELECT VALUE COUNT(*) FROM Messages m;"


class TestSourceFaults:
    def test_source_fault_backs_off_and_repulls(self, db):
        instance, injector = db
        feeds = start_feed(instance, records(20))
        injector.arm(FaultSchedule(rules=[
            FaultRule(site="feed.next_batch", fault=FeedSourceFault,
                      at_hit=2),
        ]))
        before = get_registry().snapshot()
        clock_before = instance.cluster.clock.now_us
        assert feeds.pump("msgs") == 20
        assert instance.query(COUNT) == [20]

        stats = feeds.feeds["msgs"].stats
        assert stats.source_faults == 1
        delta = get_registry().delta(before)
        assert delta.get("resilience.feed_source_faults") == 1
        # the retry cost simulated time, not records
        assert instance.cluster.clock.now_us > clock_before

    def test_source_fault_exhaustion_propagates(self, db):
        instance, injector = db
        feeds = start_feed(instance, records(8))
        injector.arm(FaultSchedule(rules=[
            FaultRule(site="feed.next_batch", fault=FeedSourceFault,
                      probability=1.0, max_fires=10_000),
        ]))
        with pytest.raises(FeedSourceFault):
            feeds.pump("msgs")
        # the source never yielded: nothing half-ingested
        assert instance.query(COUNT) == [0]


class TestCrashDuringIngest:
    def test_crash_mid_batch_replays_without_duplicates(self, db):
        instance, injector = db
        feeds = start_feed(instance, records(24))
        # one log force per node per batch (group commit): kill node 0
        # at the force of the second of the pump's three batches
        injector.arm(FaultSchedule(rules=[
            FaultRule(site="wal.flush", fault=NodeCrashFault, at_hit=2,
                      node=0),
        ]))
        before = get_registry().snapshot()
        feeds.pump("msgs")
        # at-least-once, PK-deduplicated: exactly one copy of each
        assert instance.query(COUNT) == [24]
        assert sorted(
            instance.query("SELECT VALUE m.messageId FROM Messages m;")
        ) == list(range(24))

        stats = feeds.feeds["msgs"].stats
        assert stats.replays >= 1
        delta = get_registry().delta(before)
        assert delta.get("resilience.feed_replays", 0) >= 1
        assert delta.get("resilience.node_crashes") == 1
        assert delta.get("resilience.wal_replays") == 1

    def test_pending_batch_survives_exhausted_pump(self, tmp_path):
        # one retry budget: the first fault inside ingest exhausts it
        injector = FaultInjector()
        config = ClusterConfig(
            resilience=ResilienceConfig(feed_retry_attempts=1))
        instance = connect(str(tmp_path / "db"), config,
                           injector=injector)
        instance.execute("""
            CREATE TYPE MsgType AS { messageId: int, text: string };
            CREATE DATASET Messages(MsgType) PRIMARY KEY messageId;
        """)
        feeds = start_feed(instance, records(8))
        # the single batch's group force on node 0
        injector.arm(FaultSchedule(rules=[
            FaultRule(site="wal.flush", fault=NodeCrashFault, at_hit=1,
                      node=0),
        ]))
        with pytest.raises(NodeCrashFault):
            feeds.pump("msgs")
        feed = feeds.feeds["msgs"]
        assert len(feed.pending) == 8        # batch staged, not lost

        # recover the cluster, then the next pump replays the buffer
        injector.disarm()
        instance.cluster.ensure_alive()
        assert feeds.pump("msgs") >= 0
        assert feed.pending == []
        assert sorted(
            instance.query("SELECT VALUE m.messageId FROM Messages m;")
        ) == list(range(8))
        assert feed.stats.records_replayed >= 8
        instance.close()
