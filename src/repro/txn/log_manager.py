"""The write-ahead log (paper feature 9).

AsterixDB offers "basic NoSQL-like transactional capabilities similar to
those of popular NoSQL stores": record-level *entity transactions* — each
insert/upsert/delete of one record (plus its secondary-index maintenance) is
atomic and durable, but there are no multi-record ACID transactions.  The
log accordingly has four record types:

* ``UPDATE`` — one primary-index mutation (key + new value, or a delete).
* ``ENTITY_COMMIT`` — seals the entity transaction that wrote the UPDATE.
* ``FLUSH`` — an LSM component flush: everything up to ``lsn`` for that
  index is now durable in a disk component.
* ``CHECKPOINT`` — a low-water mark; recovery starts scanning here.

LSNs are byte offsets into the log file, so they are monotone and directly
seekable.  Records are length-prefixed and CRC-free (simulated disks don't
tear); the log itself is a real append-only file so recovery tests exercise
real re-reads.
"""

from __future__ import annotations

import enum
import os
import struct
import time
from dataclasses import dataclass

from repro.adm.serializer import deserialize_tuple, serialize_tuple
from repro.common.errors import TransactionError
from repro.observability.metrics import get_registry

_FORCES = get_registry().counter("txn.wal_forces")
_FORCE_US = get_registry().histogram("txn.wal_force_us")


class LogRecordType(enum.IntEnum):
    UPDATE = 1
    ENTITY_COMMIT = 2
    FLUSH = 3
    CHECKPOINT = 4
    ABORT = 5


@dataclass
class LogRecord:
    """One WAL record.

    For UPDATE: ``dataset``/``partition``/``key``/``value`` describe the
    primary-index mutation; ``is_delete`` marks antimatter.  For FLUSH:
    ``dataset``/``partition`` name the index and ``flush_lsn`` the newest
    LSN contained in the flushed component.  For CHECKPOINT: ``flush_lsn``
    is the low-water mark.
    """

    type: LogRecordType
    txn_id: int = 0
    dataset: str = ""
    partition: int = 0
    key: tuple = ()
    value: bytes = b""
    is_delete: bool = False
    flush_lsn: int = 0
    lsn: int = -1  # assigned by append()

    def encode(self) -> bytes:
        body = bytearray()
        body.append(self.type)
        body.extend(struct.pack(">QI", self.txn_id, self.partition))
        ds = self.dataset.encode("utf-8")
        body.extend(struct.pack(">H", len(ds)))
        body.extend(ds)
        kb = serialize_tuple(self.key)
        body.extend(struct.pack(">I", len(kb)))
        body.extend(kb)
        body.extend(struct.pack(">I", len(self.value)))
        body.extend(self.value)
        body.append(1 if self.is_delete else 0)
        body.extend(struct.pack(">q", self.flush_lsn))
        return struct.pack(">I", len(body)) + bytes(body)

    @classmethod
    def decode(cls, body: bytes, lsn: int) -> "LogRecord":
        rtype = LogRecordType(body[0])
        txn_id, partition = struct.unpack_from(">QI", body, 1)
        pos = 13
        (dlen,) = struct.unpack_from(">H", body, pos)
        pos += 2
        dataset = body[pos:pos + dlen].decode("utf-8")
        pos += dlen
        (klen,) = struct.unpack_from(">I", body, pos)
        pos += 4
        key = deserialize_tuple(body[pos:pos + klen]) if klen else ()
        pos += klen
        (vlen,) = struct.unpack_from(">I", body, pos)
        pos += 4
        value = bytes(body[pos:pos + vlen])
        pos += vlen
        is_delete = bool(body[pos])
        pos += 1
        (flush_lsn,) = struct.unpack_from(">q", body, pos)
        return cls(rtype, txn_id, dataset, partition, key, value,
                   is_delete, flush_lsn, lsn)


class LogManager:
    """Append-only WAL over one real file."""

    MAGIC = b"ALOG0001"

    def __init__(self, path: str, injector=None):
        self.path = path
        #: Optional fault injector (duck-typed: anything with
        #: ``hit(site, **ctx)``); the ``wal.flush`` site fires *before*
        #: the fsync, so a scheduled crash there loses exactly the
        #: commits since the previous flush — the crash-point boundary
        #: tests/resilience/test_crash_recovery.py sweeps.
        self.injector = injector
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        self._fd = open(path, "a+b")
        self._fd.seek(0, os.SEEK_END)
        if self._fd.tell() == 0:
            # header keeps LSN 0 unused: "durable LSN 0" always means
            # "nothing durable", never "durable through the first record"
            self._fd.write(self.MAGIC)
        self._append_lsn = self._fd.tell()
        #: Everything at offsets < durable_lsn has been fsynced (existing
        #: bytes at open time count: they survived their writer).
        self.durable_lsn = self._append_lsn
        self.appends = 0
        self.flushes = 0
        self.crashed = False

    @property
    def tail_lsn(self) -> int:
        return self._append_lsn

    def append(self, record: LogRecord) -> int:
        """Append a record; returns its LSN (byte offset)."""
        record.lsn = self._append_lsn
        data = record.encode()
        self._fd.write(data)
        self._append_lsn += len(data)
        self.appends += 1
        return record.lsn

    def flush(self) -> None:
        """Force the log to stable storage (entity-commit durability).
        The only call that fsyncs the log."""
        if self.injector is not None:
            self.injector.hit("wal.flush", lsn=self._append_lsn)
        started = time.perf_counter()
        self._fd.flush()
        os.fsync(self._fd.fileno())
        self.durable_lsn = self._append_lsn
        self.flushes += 1
        _FORCES.inc()
        _FORCE_US.observe((time.perf_counter() - started) * 1e6)

    def crash(self) -> None:
        """Simulate losing the process: discard every appended-but-not-
        fsynced byte, exactly what a real crash does to a buffered WAL
        tail.  The manager is unusable afterwards; node restart opens a
        fresh :class:`LogManager` on the same path."""
        if self.crashed:
            return
        self.crashed = True
        # closing flushes Python's buffer into the file; truncating back
        # to the durable tail then drops everything past the last fsync
        self._fd.close()
        with open(self.path, "r+b") as f:
            f.truncate(self.durable_lsn)

    def scan(self, from_lsn: int = 0):
        """Yield records with lsn >= from_lsn, in order."""
        self._fd.flush()  # make buffered appends visible to the read handle
        from_lsn = max(from_lsn, len(self.MAGIC))
        with open(self.path, "rb") as f:
            f.seek(from_lsn)
            pos = from_lsn
            while True:
                header = f.read(4)
                if len(header) < 4:
                    return
                (length,) = struct.unpack(">I", header)
                body = f.read(length)
                if len(body) < length:
                    return  # torn tail after a crash: ignore
                yield LogRecord.decode(body, pos)
                pos += 4 + length

    def last_checkpoint_lsn(self) -> int:
        """LSN recorded by the most recent CHECKPOINT (0 if none)."""
        low_water = 0
        for record in self.scan(0):
            if record.type is LogRecordType.CHECKPOINT:
                low_water = record.flush_lsn
        return low_water

    def checkpoint(self, low_water_lsn: int) -> int:
        """Write a checkpoint: recovery may start scanning at
        ``low_water_lsn`` (the min durable LSN across all indexes)."""
        if low_water_lsn > self._append_lsn:
            raise TransactionError(
                f"checkpoint beyond log tail: {low_water_lsn}"
            )
        lsn = self.append(
            LogRecord(LogRecordType.CHECKPOINT, flush_lsn=low_water_lsn)
        )
        self.flush()
        return lsn

    def close(self) -> None:
        if not self.crashed:
            self._fd.close()
