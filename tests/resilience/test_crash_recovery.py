"""Crash-point tests: kill a node at every WAL flush boundary.

A single-record write outside a commit group forces the log exactly once
(at ENTITY_COMMIT), so during a K-record insert sequence the
``wal.flush`` site is hit K times — and a crash scheduled at hit N must
leave exactly the first N - 1 records durable.  The parameterized sweep
below proves that for every boundary: post-recovery contents == the
committed prefix, and the at-least-once retry of the interrupted insert
then converges to the full dataset.

Writes that commit many records (a multi-record INSERT, a DELETE, a feed
batch) share one force per partition run or per node and batch (group
commit).  :class:`TestGroupCommitCrashPoints` crashes a node between a
group's appends and its force, at the force, and inside a memory
component flush in the group, and checks that the write still lands
exactly once and that every acknowledged record survives a restart.
"""

import pytest

from repro import connect
from repro.common.config import ClusterConfig, NodeConfig
from repro.feeds import FeedManager, GeneratorSource
from repro.hyracks.cluster import ClusterController
from repro.observability.metrics import get_registry
from repro.storage.lsm import LSMBTree
from repro.resilience import (
    FaultInjector,
    FaultRule,
    FaultSchedule,
    NodeCrashFault,
    NodeState,
)

RECORDS = 6


@pytest.fixture
def single_node(tmp_path):
    injector = FaultInjector()
    cluster = ClusterController(
        str(tmp_path / "cluster"),
        ClusterConfig(num_nodes=1, partitions_per_node=1),
        injector=injector,
    )
    cluster.create_dataset("Users", ("id",))
    yield cluster, injector
    cluster.close()


def crash_at_flush(injector, hit, node=0):
    injector.arm(FaultSchedule(rules=[
        FaultRule(site="wal.flush", fault=NodeCrashFault, at_hit=hit,
                  node=node),
    ]))


class TestEveryFlushBoundary:
    @pytest.mark.parametrize("crash_at", range(1, RECORDS + 1))
    def test_post_recovery_contents_equal_committed_prefix(
            self, single_node, crash_at):
        cluster, injector = single_node
        crash_at_flush(injector, crash_at)
        before = get_registry().snapshot()

        interrupted = None
        for i in range(RECORDS):
            record = {"id": i, "alias": f"u{i}"}
            try:
                cluster.insert_record("Users", record)
            except NodeCrashFault as fault:
                interrupted = i
                assert fault.node == 0
                cluster.handle_fault(fault)   # crash + restart + replay
                # the recovered node holds exactly the committed prefix:
                # commits 1..crash_at-1 were fsynced, the interrupted
                # transaction's records died in the truncated WAL tail
                ids = sorted(rec["id"] for _, rec in
                             cluster.scan_dataset("Users"))
                assert ids == list(range(crash_at - 1))
                # at-least-once: retry the interrupted insert
                cluster.insert_record("Users", record)

        assert interrupted == crash_at - 1   # hit N fires in insert N
        assert cluster.nodes[0].state is NodeState.ALIVE
        ids = sorted(rec["id"] for _, rec in cluster.scan_dataset("Users"))
        assert ids == list(range(RECORDS))

        delta = get_registry().delta(before)
        assert delta.get("resilience.node_crashes") == 1
        assert delta.get("resilience.node_restarts") == 1
        assert delta.get("resilience.wal_replays") == 1
        assert delta.get("resilience.wal_records_replayed",
                         0) == crash_at - 1
        assert delta.get("resilience.faults.node_crash") == 1

    def test_flushed_components_survive_without_replay(self, single_node):
        """Records sealed into a disk component before the crash are not
        re-replayed from the WAL — only the memory-resident suffix is."""
        cluster, injector = single_node
        for i in range(4):
            cluster.insert_record("Users", {"id": i, "alias": f"u{i}"})
        cluster.flush_dataset("Users")       # ids 0..3 now durable (LSM)
        for i in range(4, RECORDS):
            cluster.insert_record("Users", {"id": i, "alias": f"u{i}"})

        injector.arm(FaultSchedule())        # nothing scheduled
        before = get_registry().snapshot()
        cluster.crash_node(0)
        assert cluster.nodes[0].state is NodeState.FAILED
        replayed = cluster.restart_node(0)

        assert replayed == RECORDS - 4       # only the WAL-only suffix
        ids = sorted(rec["id"] for _, rec in cluster.scan_dataset("Users"))
        assert ids == list(range(RECORDS))
        delta = get_registry().delta(before)
        assert delta.get("resilience.wal_records_replayed") == RECORDS - 4

    def test_crash_and_restart_are_idempotent(self, single_node):
        cluster, _ = single_node
        cluster.insert_record("Users", {"id": 1, "alias": "a"})
        cluster.crash_node(0)
        cluster.crash_node(0)                # second crash: no-op
        cluster.restart_node(0)
        assert cluster.restart_node(0) == 0  # already alive: no-op
        assert [rec["id"] for _, rec in cluster.scan_dataset("Users")] == [1]


class TestMultiNode:
    def test_surviving_node_keeps_serving(self, tmp_path):
        injector = FaultInjector()
        cluster = ClusterController(
            str(tmp_path / "cluster"),
            ClusterConfig(num_nodes=2, partitions_per_node=1),
            injector=injector,
        )
        cluster.create_dataset("Users", ("id",))
        records = [{"id": i, "alias": f"u{i}"} for i in range(20)]
        # split by the cluster's own routing
        on_node0 = [r for r in records
                    if cluster.node_of_partition(
                        cluster.partition_of_key((r["id"],))).node_id == 0]
        assert on_node0 and len(on_node0) < len(records)

        for r in records:
            cluster.insert_record("Users", r)
        cluster.crash_node(0)

        # node 1's partitions are untouched by node 0's death
        survivor = [r for r in records if r not in on_node0]
        for r in survivor:
            assert cluster.get_record("Users", (r["id"],)) is not None
        # node 0's are unreachable until restart
        with pytest.raises(NodeCrashFault):
            cluster.get_record("Users", (on_node0[0]["id"],))

        cluster.restart_node(0)
        ids = sorted(rec["id"] for _, rec in cluster.scan_dataset("Users"))
        assert ids == list(range(20))
        cluster.close()


#: crash point -> (site, memory-component pages).  One-page memory
#: components make every group below flush; a flush starts with its
#: WAL-rule force and then writes the component's pages.
CRASH_POINTS = {
    "before_group_force": ("txn.group_commit", 64),
    "at_group_force": ("wal.flush", 64),
    "at_flush_wal_force": ("wal.flush", 1),
    "at_flush_page_write": ("disk.write_page", 1),
}
N = 200
#: indexed, so deletes fill the secondary's memory component too
PAD = "x" * 200


def user(i):
    return {"id": i, "pad": PAD}


def ids(db):
    return sorted(db.query("SELECT VALUE u.id FROM Users u;"))


def restart_all(db):
    for node in db.cluster.nodes:
        db.cluster.crash_node(node.node_id)
        db.cluster.restart_node(node.node_id)


class TestGroupCommitCrashPoints:
    @pytest.fixture(params=sorted(CRASH_POINTS))
    def crash(self, request, tmp_path, monkeypatch):
        site, pages = CRASH_POINTS[request.param]
        injector = FaultInjector()
        db = connect(str(tmp_path / "db"), ClusterConfig(
            node=NodeConfig(memory_component_pages=pages)),
            injector=injector)
        db.execute("""
            CREATE TYPE UserType AS { id: int };
            CREATE DATASET Users(UserType) PRIMARY KEY id;
            CREATE INDEX byPad ON Users(pad);
        """)
        # which LSM flushes the crash escaped from
        crashed_flushes = []
        flush = LSMBTree.flush

        def watched_flush(index):
            try:
                return flush(index)
            except NodeCrashFault:
                crashed_flushes.append(index.name)
                raise
        monkeypatch.setattr(LSMBTree, "flush", watched_flush)

        def arm():
            injector.arm(FaultSchedule(rules=[
                FaultRule(site=site, fault=NodeCrashFault, at_hit=1,
                          node=0),
            ]))
        yield db, arm, injector
        assert bool(crashed_flushes) == (pages == 1)
        injector.disarm()
        db.close()

    def check(self, db, injector, before, expected):
        assert len(injector.history) == 1         # the crash did happen
        delta = get_registry().delta(before)
        assert delta.get("resilience.node_crashes") == 1
        assert ids(db) == expected
        injector.disarm()
        restart_all(db)           # acknowledged means durable
        assert ids(db) == expected

    def test_multi_record_insert(self, crash):
        db, arm, injector = crash
        body = ", ".join(f'{{"id": {i}, "pad": "{PAD}"}}' for i in range(N))
        arm()
        before = get_registry().snapshot()
        # the job retry re-runs the statement; records an earlier attempt
        # left durable are neither duplicate-key errors nor miscounted
        assert db.execute(f"INSERT INTO Users ([{body}]);").rows == [N]
        self.check(db, injector, before, list(range(N)))

    def test_delete(self, crash):
        db, arm, injector = crash
        for i in range(N):
            db.cluster.insert_record("Default.Users", user(i))
        arm()
        before = get_registry().snapshot()
        cut = 3 * N // 4
        rows = db.execute(f"DELETE FROM Users u WHERE u.id < {cut};").rows
        assert rows == [cut]
        self.check(db, injector, before, list(range(cut, N)))

    def test_feed_batch(self, crash):
        db, arm, injector = crash
        feeds = FeedManager(db)
        feeds.create_feed("users", GeneratorSource(user(i)
                                                   for i in range(N)),
                          batch_size=N)
        feeds.connect_feed("users", "Users")
        feeds.start_feed("users")
        arm()
        before = get_registry().snapshot()
        assert feeds.pump("users") == N
        feed = feeds.feeds["users"]
        assert feed.pending == [] and feed.stats.replays == 1
        self.check(db, injector, before, list(range(N)))
