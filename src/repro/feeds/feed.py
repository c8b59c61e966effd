"""Data feeds: continuous ingestion (paper Fig. 1's "Data Feeds" arrow).

AsterixDB's feeds pipe external data sources into datasets continuously —
the web/social-media firehose of the original use cases.  A feed couples
a *source* (anything iterable that yields ADM records: a generator, a
file being appended to, a socket in real life) to a dataset, ingesting in
batches through the normal transactional path (so fed records are
recoverable like any others, and LSM memory components do the
"ingestion buffering" of Fig. 2).

Semantics: at-least-once with upsert idempotence — a batch interrupted
mid-way re-applies cleanly, the same guarantee the real feeds framework
settled on.

Resilience (docs/RESILIENCE.md): each pulled batch is staged in the
feed's ``pending`` buffer *before* ingestion and cleared only after every
record landed, so a fault mid-batch — an injected
:class:`~repro.resilience.FeedSourceFault` at the ``feed.next_batch``
site, a node crash mid-insert — never loses data: sources are re-pulled
after simulated-clock backoff, and pending records are replayed through
the same upsert path, de-duplicated by primary key.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.common.errors import (
    AsterixError,
    DuplicateError,
    UnknownEntityError,
)
from repro.observability.metrics import get_registry
from repro.resilience import FeedSourceFault, ResilienceFault


@dataclass
class FeedStats:
    batches: int = 0
    records: int = 0
    failures: int = 0
    source_faults: int = 0      # FeedSourceFault firings survived
    replays: int = 0            # pending-buffer / mid-batch replays
    records_replayed: int = 0


class FeedSource:
    """Anything that yields record batches; exhaustion ends the feed."""

    def next_batch(self, max_records: int) -> list:
        raise NotImplementedError


class GeneratorSource(FeedSource):
    """Wraps a Python iterable of records."""

    def __init__(self, iterable):
        self._it = iter(iterable)

    def next_batch(self, max_records: int) -> list:
        return list(itertools.islice(self._it, max_records))


class FileTailSource(FeedSource):
    """Tails an ADM-lines file: new lines appended between polls become
    new records (the classic file feed adapter)."""

    def __init__(self, path: str):
        from repro.adm.parser import parse_adm

        self.path = path
        self._offset = 0
        self._parse = parse_adm

    def next_batch(self, max_records: int) -> list:
        records = []
        try:
            with open(self.path, "r", encoding="utf-8") as f:
                f.seek(self._offset)
                for line in f:
                    if not line.endswith("\n"):
                        break   # partial tail line: wait for more
                    self._offset += len(line)
                    line = line.strip()
                    if line:
                        records.append(self._parse(line))
                    if len(records) >= max_records:
                        break
        except FileNotFoundError:
            pass
        return records


@dataclass
class Feed:
    name: str
    source: FeedSource
    dataset: str | None = None     # qualified, set by connect
    state: str = "created"          # created | connected | running | stopped
    batch_size: int = 64
    stats: FeedStats = field(default_factory=FeedStats)
    #: The staged batch currently being ingested; survives a faulted pump
    #: and is replayed (upsert-deduplicated) by the next one.
    pending: list = field(default_factory=list)


class FeedManager:
    """CREATE/CONNECT/START/STOP FEED, as a Python API."""

    def __init__(self, instance):
        self.instance = instance
        self.feeds: dict[str, Feed] = {}

    def create_feed(self, name: str, source: FeedSource, *,
                    batch_size: int = 64) -> Feed:
        if name in self.feeds:
            raise DuplicateError(f"feed {name} exists")
        feed = Feed(name, source, batch_size=batch_size)
        self.feeds[name] = feed
        return feed

    def connect_feed(self, name: str, dataset: str) -> None:
        feed = self._feed(name)
        entry = self.instance.metadata.dataset_entry(dataset)
        if entry.kind != "internal":
            raise AsterixError("feeds target internal datasets")
        feed.dataset = entry.name
        feed.state = "connected"

    def start_feed(self, name: str) -> None:
        feed = self._feed(name)
        if feed.dataset is None:
            raise AsterixError(f"feed {name} is not connected")
        feed.state = "running"

    def stop_feed(self, name: str) -> None:
        self._feed(name).state = "stopped"

    def drop_feed(self, name: str) -> None:
        self.feeds.pop(name, None)

    def _feed(self, name: str) -> Feed:
        try:
            return self.feeds[name]
        except KeyError:
            raise UnknownEntityError(f"no such feed {name}") from None

    # -- ingestion ------------------------------------------------------------

    def pump(self, name: str | None = None, *,
             max_batches: int | None = None) -> int:
        """Pull batches from running feeds into their datasets; returns
        records ingested.  (Real feeds run continuously; the simulator
        pumps explicitly so tests and benchmarks stay deterministic.)

        At-least-once: a batch left in ``feed.pending`` by an earlier
        faulted pump is replayed before any new data is pulled; replays
        go through the upsert path, so primary-key duplicates collapse."""
        feeds = ([self._feed(name)] if name is not None
                 else [f for f in self.feeds.values()
                       if f.state == "running"])
        total = 0
        for feed in feeds:
            if feed.state != "running":
                continue
            batches = 0
            while max_batches is None or batches < max_batches:
                if feed.pending:
                    batch = feed.pending
                    feed.stats.replays += 1
                    feed.stats.records_replayed += len(batch)
                    get_registry().counter(
                        "resilience.feed_replays").inc()
                else:
                    batch = self._next_batch(feed)
                    if not batch:
                        break
                    feed.pending = list(batch)
                grants = self._acquire_batch_memory(feed)
                try:
                    total += self._ingest(feed, batch)
                finally:
                    for grant in grants:
                        grant.release()
                feed.pending = []
                feed.stats.batches += 1
                batches += 1
                if max_batches is None and batches >= 1000:
                    break   # safety valve for unbounded sources
        return total

    def _acquire_batch_memory(self, feed: Feed) -> list:
        """Backpressure: hold ``feed_memory_frames`` on every node's
        memory governor while a batch ingests, so ingestion competes for
        the same working-memory pool as queries instead of growing
        unaccounted.  Under heavy query load the capped admission wait
        expires as a typed
        :class:`~repro.resilience.MemoryPressureFault` — the staged
        batch stays in ``feed.pending`` and replays on the next pump,
        so backpressure delays data, never loses it."""
        cluster = self.instance.cluster
        frames = cluster.config.node.feed_memory_frames
        timeout_ms = cluster.config.node.admission_timeout_ms
        grants: list = []
        try:
            for node in cluster.nodes:    # ascending: no deadlock with
                grants.append(node.memory.admit(   # query admission
                    frames, label="feed", timeout_ms=timeout_ms))
        except ResilienceFault:
            for grant in grants:
                grant.release()
            raise
        return grants

    def _next_batch(self, feed: Feed) -> list:
        """Pull one batch, surviving injected source faults.

        The ``feed.next_batch`` injection site fires *before* the source
        cursor advances, so a retried pull re-reads the same data — the
        fault costs simulated backoff time, never records."""
        cluster = self.instance.cluster
        limit = cluster.config.resilience.feed_retry_attempts
        attempts = 0
        while True:
            try:
                cluster.injector.hit("feed.next_batch", feed=feed.name)
            except ResilienceFault as fault:
                attempts += 1
                if isinstance(fault, FeedSourceFault):
                    feed.stats.source_faults += 1
                    get_registry().counter(
                        "resilience.feed_source_faults").inc()
                else:
                    cluster.handle_fault(fault)
                if attempts >= limit:
                    raise
                cluster.retry_policy.backoff(attempts, cluster.clock)
                continue
            return feed.source.next_batch(feed.batch_size)

    def _ingest(self, feed: Feed, batch: list) -> int:
        """Upsert ``batch`` record by record as one commit group: one log
        force per node covers the whole batch, and the batch counts as
        ingested only once those forces are done.  A resilience fault
        anywhere in the batch, its forces included, recovers the cluster
        (node restart + WAL replay for crashes) and replays the *whole*
        batch: its commits on a crashed node may be lost, and the upsert
        makes re-applying the ones that survived harmless."""
        cluster = self.instance.cluster
        limit = cluster.config.resilience.feed_retry_attempts
        attempts = 0
        while True:
            ingested = failures = 0
            try:
                with cluster.group_commit():
                    for record in batch:
                        try:
                            cluster.insert_record(feed.dataset, record,
                                                  upsert=True)
                        except ResilienceFault:
                            raise
                        except AsterixError:
                            failures += 1
                        else:
                            ingested += 1
            except ResilienceFault as fault:
                attempts += 1
                if attempts >= limit:
                    raise
                cluster.handle_fault(fault)
                cluster.retry_policy.backoff(attempts, cluster.clock)
                feed.stats.replays += 1
                feed.stats.records_replayed += len(batch)
                get_registry().counter("resilience.feed_replays").inc()
                continue
            feed.stats.failures += failures
            feed.stats.records += ingested
            return ingested
