"""DML operators: INSERT / UPSERT / DELETE with index maintenance.

Incoming record tuples are hash-partitioned on primary key by the
connector feeding these operators, so each partition applies only its own
records — through the node's TransactionalPartition, which gives every
record mutation the WAL + lock entity-transaction treatment (feature 9).
One partition run is one commit group: its records' commits share a
single log force, and the run returns only once that force is done.
Each operator emits one count tuple per partition; a downstream aggregate
sums them into the statement's "N records affected" result.

A failed attempt may leave some of its commits behind (another node's
group was forced; a flush inside the group forced a prefix), and the job
retry then runs the statement again.  INSERT and DELETE remember, per
partition, the keys every attempt of the statement committed, so the
retry neither reports those records as duplicates nor leaves them out of
its count.
"""

from __future__ import annotations

from repro.common.errors import DuplicateKeyError
from repro.hyracks.expressions import RuntimeExpr, compile_expr
from repro.hyracks.job import OperatorDescriptor


class _RecordWriterOp(OperatorDescriptor):
    """Writes one record per input tuple, built by a record expression
    compiled once per job."""

    def __init__(self, dataset: str, record: RuntimeExpr):
        self.dataset = dataset
        self.record = record
        self._record = None     # compiled record closure, set by prepare()
        self._done = {}         # partition -> keys committed, all attempts

    def prepare(self, config):
        self._record = compile_expr(self.record)
        self._done = {}


class InsertOp(_RecordWriterOp):
    """INSERT: record expression evaluated per input tuple; duplicates
    raise (and abort the statement)."""

    name = "insert"

    def run(self, ctx, partition, inputs):
        txn_part = ctx.txn_partition(self.dataset, partition)
        before = ctx.node.io_snapshot()
        record = self._record
        done = self._done.setdefault(partition, set())
        earlier = frozenset(done)     # committed by a failed attempt
        count = 0
        with txn_part.txn.group_commit():
            for tup in inputs[0]:
                rec = record(tup)
                try:
                    done.add(txn_part.insert(rec))
                except DuplicateKeyError:
                    if txn_part.storage.extract_pk(rec) not in earlier:
                        raise
                count += 1
        ctx.node.charge_io_delta(ctx, before)
        ctx.charge_cpu(count)
        ctx.cost.tuples_out += 1
        return [(count,)]

    def __repr__(self):
        return f"insert({self.dataset})"


class UpsertOp(_RecordWriterOp):
    """UPSERT (Fig. 3(d)): insert or replace by primary key."""

    name = "upsert"

    def run(self, ctx, partition, inputs):
        txn_part = ctx.txn_partition(self.dataset, partition)
        before = ctx.node.io_snapshot()
        record = self._record
        count = 0
        with txn_part.txn.group_commit():
            for tup in inputs[0]:
                txn_part.upsert(record(tup))
                count += 1
        ctx.node.charge_io_delta(ctx, before)
        ctx.charge_cpu(count)
        ctx.cost.tuples_out += 1
        return [(count,)]

    def __repr__(self):
        return f"upsert({self.dataset})"


class DeleteOp(OperatorDescriptor):
    """DELETE: the input carries the primary keys to remove (produced by
    the compiled WHERE pipeline)."""

    name = "delete"

    def __init__(self, dataset: str, pk_exprs: list[RuntimeExpr]):
        self.dataset = dataset
        self.pk_exprs = list(pk_exprs)
        self._pk_fns = None     # compiled key closures, set by prepare()
        self._done = {}         # partition -> keys deleted, all attempts

    def prepare(self, config):
        self._pk_fns = [compile_expr(e) for e in self.pk_exprs]
        self._done = {}

    def run(self, ctx, partition, inputs):
        txn_part = ctx.txn_partition(self.dataset, partition)
        before = ctx.node.io_snapshot()
        pk_fns = self._pk_fns
        done = self._done.setdefault(partition, set())
        with txn_part.txn.group_commit():
            for tup in inputs[0]:
                pk = tuple(f(tup) for f in pk_fns)
                if txn_part.delete(pk) is not None:
                    done.add(pk)
        ctx.node.charge_io_delta(ctx, before)
        ctx.charge_cpu(len(inputs[0]))
        ctx.cost.tuples_out += 1
        return [(len(done),)]

    def __repr__(self):
        return f"delete({self.dataset})"


class LoadOp(_RecordWriterOp):
    """LOAD DATASET: bulk ingestion *without* per-record transaction
    overhead (the initial-load path; the dataset must be empty in real
    AsterixDB — here we just bypass the WAL, as LOAD is redone, not
    replayed)."""

    name = "load"

    def run(self, ctx, partition, inputs):
        storage = ctx.storage_partition(self.dataset, partition)
        before = ctx.node.io_snapshot()
        record = self._record
        count = 0
        for tup in inputs[0]:
            storage.upsert(record(tup))
            count += 1
        ctx.node.charge_io_delta(ctx, before)
        ctx.charge_cpu(count)
        ctx.cost.tuples_out += 1
        return [(count,)]

    def __repr__(self):
        return f"load({self.dataset})"
