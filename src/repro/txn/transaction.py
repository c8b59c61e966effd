"""Entity transactions: the NoSQL-style atomicity unit (feature 9).

Every record mutation (INSERT/UPSERT/DELETE, including its secondary-index
maintenance) runs as one *entity transaction*: lock the record, write the
UPDATE log record, apply the mutation to the LSM memory components, write
ENTITY_COMMIT, force the log, release the lock.  The
:class:`TransactionalPartition` wrapper enforces this protocol around a
:class:`~repro.storage.dataset_storage.PartitionStorage`.

**Group commit.**  A write call that commits many records — one DML
operator's partition run, one feed batch — opens a commit group
(:meth:`TransactionManager.group_commit`).  Each record still runs its own
entity transaction (UPDATE, ENTITY_COMMIT, lock, abort); only the log
force moves: one force at the end of the group covers every commit in it,
and the write is acknowledged once ``durable_lsn`` has passed the group's
last commit LSN.  If the group fails with a resilience fault nothing in it
is forced or acknowledged, and the caller replays the whole group.  An LSM
flush that starts inside a group first forces the log
(:meth:`TransactionManager.force_for_flush`), so no disk component ever
holds a commit the log has not made durable.

Each entity transaction is an explicit :class:`EntityTransaction` state
machine (ACTIVE -> COMMITTED | ABORTED).  A failed operation — a
duplicate key, an injected :class:`~repro.resilience.faults.DiskIOFault`,
a node crash mid-commit — aborts it, appending an ABORT record so the log
tells the whole story.  ``abort`` is **idempotent**: retry and resilience
paths abort defensively without knowing whether the fault struck before
or after the commit, and re-aborting a finished transaction is a no-op.
``commit`` on a finished transaction raises
:class:`~repro.common.errors.TransactionStateError` — committing twice,
or after an abort, is a protocol bug, never silently absorbed.
"""

from __future__ import annotations

import contextlib
import enum
import itertools

from repro.adm.serializer import deserialize, serialize
from repro.common.errors import TransactionStateError
from repro.observability.metrics import get_registry
from repro.resilience.faults import ResilienceFault
from repro.storage.dataset_storage import PartitionStorage
from repro.txn.lock_manager import LockManager
from repro.txn.log_manager import LogManager, LogRecord, LogRecordType


_COMMITS = get_registry().counter("txn.commits")


class TxnState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class EntityTransaction:
    """One record-level transaction with an explicit lifecycle."""

    def __init__(self, manager: "TransactionManager", txn_id: int):
        self.manager = manager
        self.txn_id = txn_id
        self.state = TxnState.ACTIVE

    def commit(self, dataset: str, partition: int, key: tuple) -> None:
        """Seal the transaction: append ENTITY_COMMIT and force the log —
        now, or, inside a commit group, when the group ends.

        Raises :class:`TransactionStateError` unless ACTIVE — commit is
        not idempotent; a double commit (or commit-after-abort) means the
        entity protocol was violated.
        """
        if self.state is not TxnState.ACTIVE:
            raise TransactionStateError(
                f"cannot commit txn {self.txn_id}: already "
                f"{self.state.value}"
            )
        manager = self.manager
        lsn = manager.log.append(LogRecord(
            LogRecordType.ENTITY_COMMIT, txn_id=self.txn_id,
            dataset=dataset, partition=partition, key=key,
        ))
        if manager.group_depth:
            manager.group_commit_lsn = lsn
        else:
            manager.log.flush()
        self.state = TxnState.COMMITTED
        manager.commits += 1
        _COMMITS.inc()

    def abort(self, dataset: str = "", partition: int = 0,
              key: tuple = ()) -> bool:
        """Abort if still ACTIVE; returns whether this call aborted.

        Idempotent by design: aborting an already-aborted *or committed*
        transaction is a no-op returning False, so recovery/retry code
        can abort defensively after any failure without corrupting a
        commit that already happened.  The ABORT record is appended but
        not forced — aborted transactions are skipped by recovery whether
        or not the record survives.
        """
        if self.state is not TxnState.ACTIVE:
            return False
        self.manager.log.append(LogRecord(
            LogRecordType.ABORT, txn_id=self.txn_id,
            dataset=dataset, partition=partition, key=key,
        ))
        self.state = TxnState.ABORTED
        self.manager.aborts += 1
        get_registry().counter("resilience.txn_aborts").inc()
        return True


class TransactionManager:
    """Per-node transaction service: ids, locks, the WAL, commit groups.

    A node runs one task at a time (the executor serializes per-node
    work), so one open commit group per manager is all there is."""

    def __init__(self, log: LogManager):
        self.log = log
        self.locks = LockManager()
        self._ids = itertools.count(1)
        self.commits = 0
        self.aborts = 0
        #: nesting depth of open commit groups (0: every commit forces)
        self.group_depth = 0
        #: LSN of the open group's newest ENTITY_COMMIT (0: none yet)
        self.group_commit_lsn = 0

    @contextlib.contextmanager
    def group_commit(self):
        """Let every entity transaction committed inside share one log
        force, taken when the outermost group ends.

        The force is skipped when a resilience fault ends the group: the
        node may be dead, and its caller replays the whole group.  Any
        other error still forces, so commits that preceded it (an INSERT
        statement's records before a duplicate key, say) are as durable
        as they would have been one force per record.  The
        ``txn.group_commit`` fault site fires after the group's last
        append and before its force."""
        self.group_depth += 1
        fault = False
        try:
            yield
        except ResilienceFault:
            fault = True
            raise
        finally:
            self._close_group(force=not fault)

    def _close_group(self, force: bool) -> None:
        self.group_depth -= 1
        if self.group_depth:
            return
        lsn, self.group_commit_lsn = self.group_commit_lsn, 0
        if force and lsn >= self.log.durable_lsn:
            if self.log.injector is not None:
                self.log.injector.hit("txn.group_commit", lsn=lsn)
            self.log.flush()

    def force_for_flush(self) -> None:
        """The WAL rule for an LSM flush starting inside a commit group:
        force the log through the component's newest record first, so
        the disk component never holds a commit that is not durable.
        Outside a group every commit is already forced, and so is a
        group's prefix that an earlier flush forced: no force then."""
        if self.group_commit_lsn >= self.log.durable_lsn:
            self.log.flush()

    def next_txn_id(self) -> int:
        return next(self._ids)

    def begin(self) -> EntityTransaction:
        """Start a new entity transaction."""
        return EntityTransaction(self, self.next_txn_id())

    def seed_ids(self, min_txn_id: int) -> None:
        """Restart the id sequence at ``min_txn_id``.

        Recovery calls this after scanning the WAL so new transaction ids
        continue past the log's maximum — an old uncommitted entity
        transaction can then never be confused with a new committed one
        during a later recovery pass.
        """
        self._ids = itertools.count(min_txn_id)

    def checkpoint(self, partitions) -> int:
        """Write a checkpoint at the min durable LSN over ``partitions``."""
        low_water = min(
            (p.durable_lsn() for p in partitions), default=0
        )
        return self.log.checkpoint(low_water)


class TransactionalPartition:
    """A PartitionStorage with the entity-transaction protocol applied."""

    def __init__(self, storage: PartitionStorage, txn: TransactionManager):
        self.storage = storage
        self.txn = txn
        storage.set_wal_force(txn.force_for_flush)

    def _entity_op(self, pk: tuple, value: bytes, is_delete: bool,
                   apply_fn):
        txn = self.txn.begin()
        ds, part = self.storage.dataset_name, self.storage.partition_id
        self.txn.locks.acquire(txn.txn_id, ds, part, pk)
        try:
            lsn = self.txn.log.append(LogRecord(
                LogRecordType.UPDATE, txn_id=txn.txn_id, dataset=ds,
                partition=part, key=pk, value=value, is_delete=is_delete,
            ))
            result = apply_fn(lsn)
            txn.commit(ds, part, pk)
            return result
        except BaseException:
            # defensive, idempotent: a fault raised from inside commit's
            # log flush leaves the txn ACTIVE (aborted here); any error
            # after the commit sealed is a no-op
            txn.abort(ds, part, pk)
            raise
        finally:
            self.txn.locks.release_all(txn.txn_id)

    def insert(self, record: dict):
        pk = self.storage.extract_pk(record)
        return self._entity_op(
            pk, serialize(record), False,
            lambda lsn: self.storage.insert(record, lsn),
        )

    def upsert(self, record: dict):
        pk = self.storage.extract_pk(record)
        return self._entity_op(
            pk, serialize(record), False,
            lambda lsn: self.storage.upsert(record, lsn),
        )

    def delete(self, pk: tuple):
        return self._entity_op(
            pk, b"", True,
            lambda lsn: self.storage.delete(pk, lsn),
        )

    # reads need no locks in this snapshot-free, single-writer model
    def get(self, pk: tuple):
        return self.storage.get(pk)

    def scan(self, *args, **kwargs):
        return self.storage.scan(*args, **kwargs)


class RecoveryManager:
    """Crash recovery: replay committed entity operations into the LSM
    memory components of any partition whose durable LSN predates them.

    Replay is idempotent: UPDATEs re-apply as upserts/deletes through the
    normal PartitionStorage path (which also re-derives secondary-index
    maintenance), so a partition whose primary was more durable than one of
    its secondaries simply re-applies a few no-op upserts.

    Replay streams: UPDATEs wait in a buffer per open transaction, are
    applied when their ENTITY_COMMIT arrives and dropped on ABORT, so
    memory is bounded by the transactions open at one point of the log,
    not by the log's length.  Applying in commit order is correct because
    the lock manager orders the commits of every pair of transactions that
    touch the same record."""

    def __init__(self, log: LogManager):
        self.log = log
        self.replayed = 0
        self.skipped = 0

    def recover(self, partitions: dict) -> int:
        """``partitions`` maps (dataset, partition_id) -> PartitionStorage
        (freshly reopened via the LSM manifests).  Returns the number of
        operations replayed."""
        self.replayed = 0
        self.skipped = 0
        durable = {key: ps.durable_lsn() for key, ps in partitions.items()}
        open_updates: dict[int, list[LogRecord]] = {}
        for record in self.log.scan(self.log.last_checkpoint_lsn()):
            if record.type is LogRecordType.UPDATE:
                open_updates.setdefault(record.txn_id, []).append(record)
            elif record.type is LogRecordType.ENTITY_COMMIT:
                for update in open_updates.pop(record.txn_id, ()):
                    self._replay(update, partitions, durable)
            elif record.type is LogRecordType.ABORT:
                self.skipped += len(open_updates.pop(record.txn_id, ()))
        # transactions the crash caught before their commit
        self.skipped += sum(len(u) for u in open_updates.values())
        return self.replayed

    def _replay(self, record: LogRecord, partitions: dict,
                durable: dict) -> None:
        key = (record.dataset, record.partition)
        storage = partitions.get(key)
        if storage is None or record.lsn <= durable[key]:
            self.skipped += 1
        elif record.is_delete:
            storage.delete(record.key, lsn=record.lsn)
            self.replayed += 1
        else:
            storage.upsert(deserialize(record.value), lsn=record.lsn)
            self.replayed += 1
