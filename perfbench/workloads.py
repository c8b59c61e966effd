"""The benchmark's three workloads: seeded inputs, op streams and oracles.

Every input comes from the seed: the Gleambook generator for Users and
Messages, and a string-seeded ``random.Random`` for the op interleave and
query parameters.  The system under test receives only the generated
inputs, through its public API (SQL++ statements, ``LOAD``, a feed).

Each workload also keeps an oracle outside the system: plain-Python copies
of every acknowledged record, from which the expected answer of every read
is computed.  A read whose rows differ from the oracle counts as failed.

Op classes repeat in fixed-proportion rounds (shuffled within a round by
the seed), so the latency mix, and with it every percentile, is the same
from seed to seed; only record contents, keys and parameters change.
"""

from __future__ import annotations

import hashlib
import heapq
import os
import random
from dataclasses import dataclass

from repro.adm.parser import format_adm, parse_adm
from repro.adm.values import ADateTime
from repro.datagen.gleambook import EPOCH_2005, EPOCH_2019, GleambookGenerator
from repro.feeds.feed import FeedManager, FeedSource

DDL = """
CREATE TYPE UserType AS { id: int };
CREATE TYPE MessageType AS { messageId: int, authorId: int };
CREATE DATASET Users(UserType) PRIMARY KEY id;
CREATE DATASET Messages(MessageType) PRIMARY KEY messageId;
CREATE INDEX byAuthor ON Messages(authorId);
"""

#: Upper bound on generated message ids; the stream is lazy, so this only
#: caps how long a run could possibly ingest.
_STREAM_LIMIT = 10 ** 9
_TIME_SPAN = EPOCH_2019 - EPOCH_2005


@dataclass
class Op:
    """One call into the system: a SQL++ statement or one feed batch."""

    cls: str                 # op class, e.g. "point" or "feed"
    kind: str                # "read" | "write"
    text: str = ""           # SQL++ statement; empty for a feed batch
    records: tuple = ()      # records a write acknowledges
    params: tuple = ()       # oracle inputs of a read


class _BatchSource(FeedSource):
    """Feed source the benchmark fills with one batch before each pump."""

    def __init__(self):
        self.pending: list = []

    def next_batch(self, max_records: int) -> list:
        batch = self.pending[:max_records]
        self.pending = self.pending[max_records:]
        return batch


def _as_sent(records) -> list:
    """Records as the system receives them: ADM text prints points with
    four decimals, so the oracle keeps the text's values, not the
    generator's."""
    return [parse_adm(format_adm(r)) for r in records]


def _dt(millis: int) -> str:
    return repr(ADateTime(millis))


class Workload:
    """Base: sizes, preload, op execution and the oracle."""

    name = ""
    why = ""
    #: NodeConfig fields this workload overrides (library defaults else)
    overrides: dict = {}
    #: (users, preloaded messages) for each size
    sizes = {"full": (0, 0), "tiny": (0, 0)}
    #: op classes in one round; each name's count is its share
    round: tuple = ()
    #: read class -> (dataset, method[, index]) its plan must use
    access: dict = {}
    #: read classes whose rows come back in no particular order
    unordered = ("by_author", "range")
    #: newest message ids a ``retire`` op keeps, for each size
    retain: dict = {}

    def __init__(self, seed: int, size: str = "full"):
        self.size = size
        n_users, n_preload = self.sizes[size]
        gen = GleambookGenerator(seed)
        self.user_records = _as_sent(gen.users(n_users))
        self._stream = gen.messages(_STREAM_LIMIT, n_users)
        self.preload_records = _as_sent(
            next(self._stream) for _ in range(n_preload))
        # replacement contents for UPSERTs come from their own stream
        self._versions = GleambookGenerator(seed + 7919).messages(
            _STREAM_LIMIT, n_users)
        self.rng = random.Random(f"{self.name}:{seed}")
        self.n_users = n_users
        #: ids handed out so far, in order (the op stream's own view);
        #: ids below ``_live_from`` have been deleted
        self._ids = [m["messageId"] for m in self.preload_records]
        self._live_from = 0
        # the oracle: every acknowledged record, and their ADM-text bytes
        self.users = {u["id"]: u for u in self.user_records}
        self.messages = {m["messageId"]: m for m in self.preload_records}
        self.live_bytes = sum(len(format_adm(m))
                              for m in self.preload_records)

    # -- oracle ---------------------------------------------------------------

    def apply(self, op: Op) -> None:
        """Record an acknowledged write in the oracle."""
        if op.cls == "retire":
            for key in range(*op.params):
                self.live_bytes -= len(format_adm(self.messages.pop(key)))
        for record in op.records:
            old = self.messages.get(record["messageId"])
            if old is not None:
                self.live_bytes -= len(format_adm(old))
            self.live_bytes += len(format_adm(record))
            self.messages[record["messageId"]] = record

    def expected(self, op: Op):
        """The rows a read must return, computed from the oracle."""
        return getattr(self, "_expect_" + op.cls)(*op.params)

    def check(self, op: Op, rows: list) -> bool:
        if op.cls == "retire":
            lo, hi = op.params
            return rows == [hi - lo]
        if op.kind == "write":
            return rows == [len(op.records)]
        want = self.expected(op)
        if op.cls in self.unordered:
            return sorted(rows) == sorted(want)
        return rows == want

    def _expect_point(self, key):
        return [self.messages[key]] if key in self.messages else []

    def _expect_by_author(self, author):
        return [k for k, m in self.messages.items()
                if m["authorId"] == author]

    def _expect_range(self, lo, hi):
        return [k for k in self.messages if lo <= k < hi]

    # -- inputs ---------------------------------------------------------------

    def write_preload(self, workdir: str) -> dict:
        """Write the LOAD input files; returns dataset -> path."""
        paths = {}
        for dataset, records in (("Users", self.user_records),
                                 ("Messages", self.preload_records)):
            if not records:
                continue
            path = os.path.join(workdir, f"{dataset.lower()}.adm")
            with open(path, "w", encoding="utf-8") as f:
                for record in records:
                    f.write(format_adm(record) + "\n")
            paths[dataset] = path
        return paths

    def setup(self, db, paths: dict) -> None:
        """DDL, preload through LOAD, and the final flush of setup."""
        db.execute(DDL)
        for dataset, path in paths.items():
            db.execute(f'LOAD DATASET {dataset} USING localfs '
                       f'(("path"="{path}"), ("format"="adm"));')
        db.flush_dataset("Users")
        db.flush_dataset("Messages")

    def ops(self):
        """The endless, seeded op stream: shuffled fixed rounds."""
        while True:
            classes = list(self.round)
            self.rng.shuffle(classes)
            for cls in classes:
                yield getattr(self, "_op_" + cls)()

    def input_digest(self, n_ops: int) -> str:
        """sha256 over the preload and the first ``n_ops`` ops: the same
        seed must give the same bytes.  Consumes this object's stream."""
        h = hashlib.sha256()
        for record in self.user_records + self.preload_records:
            h.update(format_adm(record).encode())
        stream = self.ops()
        for _ in range(n_ops):
            op = next(stream)
            h.update(repr((op.cls, op.text, op.params)).encode())
            for record in op.records:
                h.update(format_adm(record).encode())
        return h.hexdigest()

    # -- ops ------------------------------------------------------------------

    def _new_messages(self, count: int) -> tuple:
        records = tuple(_as_sent(next(self._stream) for _ in range(count)))
        self._ids.extend(m["messageId"] for m in records)
        return records

    def _op_point(self) -> Op:
        key = self._ids[self.rng.randrange(self._live_from, len(self._ids))]
        return Op("point", "read",
                  f"SELECT VALUE m FROM Messages m WHERE m.messageId = {key};",
                  params=(key,))

    def _op_by_author(self) -> Op:
        author = self.rng.randrange(self.n_users)
        return Op("by_author", "read",
                  f"SELECT VALUE m.messageId FROM Messages m "
                  f"WHERE m.authorId = {author};", params=(author,))

    def _op_range(self) -> Op:
        lo = self.rng.randrange(max(1, len(self._ids) - 10))
        return Op("range", "read",
                  f"SELECT VALUE m.messageId FROM Messages m "
                  f"WHERE m.messageId >= {lo} AND m.messageId < {lo + 10};",
                  params=(lo, lo + 10))

    def _op_insert(self) -> Op:
        records = self._new_messages(1)
        return Op("insert", "write",
                  f"INSERT INTO Messages ({format_adm(records[0])});",
                  records=records)

    def _op_multi_insert(self, count: int = 10) -> Op:
        records = self._new_messages(count)
        body = ", ".join(format_adm(r) for r in records)
        return Op("multi_insert", "write",
                  f"INSERT INTO Messages ([{body}]);", records=records)

    def _op_upsert(self) -> Op:
        record = dict(next(self._versions))
        record["messageId"] = self.rng.choice(self._ids)
        record = _as_sent([record])[0]
        return Op("upsert", "write",
                  f"UPSERT INTO Messages ({format_adm(record)});",
                  records=(record,))

    def _op_feed(self, count: int = 40) -> Op:
        return Op("feed", "write", records=self._new_messages(count))

    def _op_retire(self) -> Op:
        """Delete the messages that fell out of the newest ``retain``."""
        lo = self._live_from
        hi = max(lo, len(self._ids) - self.retain[self.size])
        self._live_from = hi
        return Op("retire", "write",
                  f"DELETE FROM Messages m WHERE m.messageId < {hi};",
                  params=(lo, hi))

    # -- execution ------------------------------------------------------------

    def attach(self, db) -> None:
        """Connect the feed used by ``feed`` ops to a set-up instance."""
        self.db = db
        self.feeds = FeedManager(db)
        self._source = _BatchSource()
        self._feed = self.feeds.create_feed("MessageFeed", self._source)
        self.feeds.connect_feed("MessageFeed", "Messages")
        self.feeds.start_feed("MessageFeed")

    def execute(self, op: Op):
        """Run one op; returns (rows, JobProfile or None).  This is the
        only part of an op the benchmark clock measures."""
        if op.text:
            result = self.db.execute(op.text)
            return result.rows, result.profile
        self._source.pending = list(op.records)
        self._feed.batch_size = len(op.records)
        failures = self._feed.stats.failures
        count = self.feeds.pump("MessageFeed", max_batches=1)
        if self._feed.stats.failures != failures:
            count = -1
        return [count], None


class Ingest(Workload):
    """Sustained ingest in steady state.

    Each round also deletes the messages that fell out of a retention
    window of the newest ``retain`` ids.  Merges then rewrite a bounded
    amount of live data, so a merge costs the same late in a run as
    early, and a run's throughput does not hinge on whether the clock
    stops just before or just after one ever-growing merge of every
    partition.  The set-up preloads a full window, so the run starts in
    that steady state instead of spending its first few hundred ops on
    a dataset that is still small and cheap to merge."""

    name = "ingest"
    why = ("write path: feed batches, multi- and single-record INSERTs and "
           "a retention DELETE on an indexed dataset; WAL forces, flushes "
           "and merges dominate")
    overrides = {"memory_component_pages": 1}
    sizes = {"full": (200, 2000), "tiny": (20, 200)}
    round = ("feed",) * 2 + ("multi_insert",) + ("insert",) * 7 \
        + ("point",) * 2 + ("retire",)
    access = {"point": ("Messages", "primary-index")}
    retain = {"full": 2000, "tiny": 200}

    def ops(self):
        # the first op must write: reads pick from acknowledged keys
        yield self._op_feed()
        yield from super().ops()


class Mixed(Workload):
    name = "mixed"
    why = ("80% short reads / 20% single-record writes over a working set "
           "that fits the buffer cache; compile cost per statement shows")
    overrides = {"memory_component_pages": 1}
    sizes = {"full": (300, 600), "tiny": (30, 120)}
    round = ("point",) * 12 + ("by_author",) * 2 + ("range",) * 2 \
        + ("upsert",) * 3 + ("insert",)
    access = {
        "point": ("Messages", "primary-index"),
        "by_author": ("Messages", "btree-index", "byAuthor"),
        "range": ("Messages", "primary-index"),
    }


class Analytics(Workload):
    name = "analytics"
    why = ("scan, join, group, sort and top-k queries over data several "
           "times the buffer cache, beside a trickle feed")
    overrides = {"buffer_cache_pages": 16, "memory_component_pages": 4}
    sizes = {"full": (300, 1500), "tiny": (40, 300)}
    queries = ("scan_agg", "join_group", "topk", "sort_full", "join3")
    #: a round also retires the messages the feed pushed out of the
    #: newest ``retain``, so the data keeps its size however long a run
    #: lasts, and the last query of a run scans as much as the first
    round = queries + ("retire",)
    access = {cls: ("Messages", "primary-scan") for cls in queries}
    retain = {"full": 1500, "tiny": 300}
    #: feed batches, and records per batch, sent after every query
    trickle = (2, 10)

    def ops(self):
        batches, size = self.trickle
        for op in super().ops():
            yield op
            if op.kind == "read":
                for _ in range(batches):
                    yield self._op_feed(size)

    def _window(self, share: float) -> tuple:
        width = int(_TIME_SPAN * share)
        lo = EPOCH_2005 + self.rng.randrange(_TIME_SPAN - width)
        return lo, lo + width

    def _op_scan_agg(self) -> Op:
        lo, hi = self._window(self.rng.uniform(0.2, 0.6))
        return Op("scan_agg", "read",
                  f"SELECT COUNT(*) AS n, MIN(m.messageId) AS lo, "
                  f"MAX(m.messageId) AS hi FROM Messages m "
                  f"WHERE m.sendTime >= {_dt(lo)} AND m.sendTime < {_dt(hi)};",
                  params=(lo, hi))

    def _expect_scan_agg(self, lo, hi):
        ids = [k for k, m in self.messages.items()
               if lo <= m["sendTime"].millis < hi]
        return [{"n": len(ids), "lo": min(ids), "hi": max(ids)}]

    def _op_join_group(self) -> Op:
        since = EPOCH_2005 + self.rng.randrange(_TIME_SPAN // 2)
        return Op("join_group", "read",
                  f"SELECT uid AS id, COUNT(*) AS c "
                  f"FROM Users u, Messages m "
                  f"WHERE u.id = m.authorId AND m.sendTime >= {_dt(since)} "
                  f"GROUP BY u.id AS uid ORDER BY c DESC, uid LIMIT 10;",
                  params=(since,))

    def _expect_join_group(self, since):
        counts: dict = {}
        for m in self.messages.values():
            if m["sendTime"].millis >= since and m["authorId"] in self.users:
                counts[m["authorId"]] = counts.get(m["authorId"], 0) + 1
        top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
        return [{"id": k, "c": c} for k, c in top]

    def _op_topk(self) -> Op:
        k = self.rng.randrange(5, 21)
        return Op("topk", "read",
                  f"SELECT VALUE m.messageId FROM Messages m "
                  f"ORDER BY m.sendTime DESC, m.messageId LIMIT {k};",
                  params=(k,))

    def _expect_topk(self, k):
        top = heapq.nsmallest(
            k, self.messages.values(),
            key=lambda m: (-m["sendTime"].millis, m["messageId"]))
        return [m["messageId"] for m in top]

    def _op_sort_full(self) -> Op:
        lo, hi = self._window(self.rng.uniform(0.1, 0.3))
        return Op("sort_full", "read",
                  f"SELECT VALUE m.messageId FROM Messages m "
                  f"WHERE m.sendTime >= {_dt(lo)} AND m.sendTime < {_dt(hi)} "
                  f"ORDER BY m.sendTime, m.messageId;", params=(lo, hi))

    def _expect_sort_full(self, lo, hi):
        hits = [m for m in self.messages.values()
                if lo <= m["sendTime"].millis < hi]
        hits.sort(key=lambda m: (m["sendTime"].millis, m["messageId"]))
        return [m["messageId"] for m in hits]

    def _op_join3(self) -> Op:
        below = self.rng.randrange(self.n_users // 4, self.n_users)
        return Op("join3", "read",
                  f"SELECT COUNT(*) AS c "
                  f"FROM Messages m1, Messages m2, Users u "
                  f"WHERE m1.inResponseTo = m2.messageId "
                  f"AND m2.authorId = u.id AND u.id < {below};",
                  params=(below,))

    def _expect_join3(self, below):
        count = 0
        for m in self.messages.values():
            parent = self.messages.get(m.get("inResponseTo"))
            if parent is not None and parent["authorId"] < below \
                    and parent["authorId"] in self.users:
                count += 1
        return [{"c": count}]


WORKLOADS = {w.name: w for w in (Ingest, Mixed, Analytics)}
