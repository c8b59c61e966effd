"""The LSM R-tree — AsterixDB's spatial secondary index.

Entries are (mbr, key) pairs where ``key`` is the full logical entry key —
for a secondary index on a point field, ``(x, y, pk...)`` — so an entry is
uniquely identified by its key tuple.  R-trees don't support antimatter
in-place (entries aren't totally ordered), so each component carries a
companion *deleted-key B+ tree*: a delete writes the victim's key there, and
searches suppress entries whose key appears in any newer component's
deleted-key set.  This is exactly the LSM-deletion design change the paper
says was folded back into Apache AsterixDB after the spatial-index study
(§V-B), along with the point-storage optimization implemented in
:mod:`repro.storage.rtree` (points stored as 2 doubles, not degenerate
4-double boxes).

Flushes STR-bulk-load an immutable disk R-tree; merges consolidate matter
entries and deleted-key sets with the same newest-wins rules as the LSM B+
tree.
"""

from __future__ import annotations

import time

from repro.adm.serializer import deserialize_tuple, serialize_tuple
from repro.adm.values import ARectangle
from repro.storage.btree import BTree
from repro.storage.buffer_cache import BufferCache
from repro.storage.file_manager import FileManager
from repro.storage.lsm.component import (
    ANTIMATTER,
    FLUSH_US,
    MERGE_US,
    DiskComponent,
    LSMStats,
)
from repro.storage.lsm.merge_policy import MergePolicy, PrefixMergePolicy
from repro.storage.mem import MemBTree, MemRTree


class LSMRTree:
    """An LSM-structured R-tree: (mbr, key tuple) entries with window search."""

    def __init__(self, fm: FileManager, cache: BufferCache, name: str, *,
                 memory_budget_bytes: int = 256 * 1024,
                 merge_policy: MergePolicy | None = None,
                 device_hint: int = 0):
        self.fm = fm
        self.cache = cache
        self.name = name
        self.memory_budget_bytes = memory_budget_bytes
        self.merge_policy = merge_policy or PrefixMergePolicy()
        self.device_hint = device_hint
        self.memory = MemRTree()
        self.memory_deleted = MemBTree()
        self.memory_lsn = 0
        self.components: list[DiskComponent] = []   # newest first
        self.stats = LSMStats()
        self._next_seq = 0
        #: optional no-argument hook run before a flush writes anything
        #: (see ``LSMBTree.before_flush``)
        self.before_flush = None

    # -- write path -----------------------------------------------------------

    def insert(self, mbr: ARectangle, key, lsn: int = 0) -> None:
        # A re-insert of a previously deleted key resurrects it: drop the
        # pending tombstone (the duplicate-suppressing search dedupe makes
        # the surviving older copy indistinguishable from the new one).
        if key in self.memory_deleted:
            self.memory_deleted.put(key, b"+")
        self.memory.insert(mbr, key, b"")
        self.memory_lsn = max(self.memory_lsn, lsn)
        self._maybe_flush()

    def delete(self, key, lsn: int = 0) -> None:
        self.memory_deleted.put(key, b"-")
        self.memory_lsn = max(self.memory_lsn, lsn)
        self._maybe_flush()

    def _maybe_flush(self) -> None:
        used = self.memory.bytes_used + self.memory_deleted.bytes_used
        if used >= self.memory_budget_bytes:
            self.flush()

    # -- read path --------------------------------------------------------------

    def search(self, window: ARectangle):
        """Yield key tuples of live entries whose MBR intersects window."""
        self.stats.searches += 1
        seen: set[bytes] = set()
        killed: set[bytes] = set()
        # memory component first
        mem_deleted = {
            serialize_tuple(k)
            for k, v in self.memory_deleted.items() if v == b"-"
        }
        for _, key, _ in self.memory.search(window):
            kb = serialize_tuple(key)
            if kb in mem_deleted or kb in seen:
                continue
            seen.add(kb)
            yield key
        killed |= mem_deleted
        for comp in self.components:
            self.stats.components_searched += 1
            for _, payload in comp.index.search(window):
                if payload in killed or payload in seen:
                    continue
                seen.add(payload)
                yield deserialize_tuple(payload)
            if comp.deleted_keys is not None:
                for dkey, _ in comp.deleted_keys.range_scan():
                    killed.add(serialize_tuple(dkey))

    def scan_all(self):
        """Yield (mbr, key) for every live entry (used by tests/merges)."""
        seen: set[bytes] = set()
        killed: set[bytes] = set()
        mem_deleted = {
            serialize_tuple(k)
            for k, v in self.memory_deleted.items() if v == b"-"
        }
        for mbr, key, _ in self.memory.items():
            kb = serialize_tuple(key)
            if kb in mem_deleted or kb in seen:
                continue
            seen.add(kb)
            yield mbr, key
        killed |= mem_deleted
        for comp in self.components:
            for mbr, payload in comp.index.scan_all():
                if payload in killed or payload in seen:
                    continue
                seen.add(payload)
                yield mbr, deserialize_tuple(payload)
            if comp.deleted_keys is not None:
                for dkey, _ in comp.deleted_keys.range_scan():
                    killed.add(serialize_tuple(dkey))

    def __len__(self):
        return sum(1 for _ in self.scan_all())

    # -- flush -------------------------------------------------------------------

    def flush(self) -> DiskComponent | None:
        has_matter = len(self.memory) > 0
        has_deletes = any(v == b"-" for _, v in self.memory_deleted.items())
        if not has_matter and not has_deletes:
            return None
        started = time.perf_counter()
        if self.before_flush is not None:
            self.before_flush()
        seq = self._next_seq
        self._next_seq += 1
        handle = self.fm.create_file(f"{self.name}_c{seq}.rtree",
                                     self.device_hint)
        # annihilate within the memory component: an entry deleted after
        # being inserted in the same component must not be flushed as
        # matter (its tombstone, living in the same component, would only
        # apply to *older* components and the entry would resurrect)
        deleted_now = {
            serialize_tuple(k)
            for k, v in self.memory_deleted.items() if v == b"-"
        }
        entries = [
            (mbr, serialize_tuple(key))
            for mbr, key, _ in self.memory.items()
            if serialize_tuple(key) not in deleted_now
        ]
        tree = self._bulk_load_rtree(handle, entries)
        dhandle = self.fm.create_file(f"{self.name}_c{seq}.deleted",
                                      self.device_hint)
        deleted_items = [
            (k, ANTIMATTER) for k, v in self.memory_deleted.items()
            if v == b"-"
        ]
        dtree = BTree.bulk_load(self.cache, dhandle, deleted_items)
        comp = DiskComponent(
            component_id=(seq, seq),
            index=tree,
            handle=handle,
            num_entries=len(entries),
            lsn=self.memory_lsn,
            deleted_keys=dtree,
            deleted_handle=dhandle,
        )
        self.components.insert(0, comp)
        self.memory.clear()
        self.memory_deleted.clear()
        self.memory_lsn = 0
        self.stats.flushes += 1
        self.stats.entries_flushed += len(entries)
        FLUSH_US.observe((time.perf_counter() - started) * 1e6)
        self._maybe_merge()
        self._save_manifest()
        return comp

    def _bulk_load_rtree(self, handle, entries):
        from repro.storage.rtree import RTree

        return RTree.bulk_load(self.cache, handle, entries)

    # -- merge ----------------------------------------------------------------------

    def _maybe_merge(self) -> None:
        selection = self.merge_policy.select(self.components)
        if selection is not None:
            self.merge(selection)

    def merge(self, selection: slice | None = None) -> DiskComponent | None:
        if selection is None:
            selection = slice(0, len(self.components))
        merged = self.components[selection]
        if len(merged) < 2:
            return None
        started = time.perf_counter()
        includes_oldest = selection.stop >= len(self.components)
        # matter: newest-first walk with kill sets, as in search()
        seen: set[bytes] = set()
        killed: set[bytes] = set()
        entries = []
        deleted_union: dict[bytes, tuple] = {}
        for comp in merged:
            for mbr, payload in comp.index.scan_all():
                if payload in killed or payload in seen:
                    continue
                seen.add(payload)
                entries.append((mbr, payload))
            if comp.deleted_keys is not None:
                for dkey, _ in comp.deleted_keys.range_scan():
                    kb = serialize_tuple(dkey)
                    killed.add(kb)
                    deleted_union.setdefault(kb, dkey)

        seq_lo = min(c.min_seq for c in merged)
        seq_hi = max(c.max_seq for c in merged)
        handle = self.fm.create_file(f"{self.name}_c{seq_lo}-{seq_hi}.rtree",
                                     self.device_hint)
        tree = self._bulk_load_rtree(handle, entries)
        dhandle = self.fm.create_file(
            f"{self.name}_c{seq_lo}-{seq_hi}.deleted", self.device_hint
        )
        if includes_oldest:
            deleted_items = []
        else:
            # tombstones must survive to kill entries in older components;
            # ones whose key re-appeared as matter here are spent
            deleted_items = sorted(
                ((dkey, ANTIMATTER) for kb, dkey in deleted_union.items()
                 if kb not in seen),
                key=lambda kv: _sortable(kv[0]),
            )
        dtree = BTree.bulk_load(self.cache, dhandle, deleted_items)
        comp = DiskComponent(
            component_id=(seq_lo, seq_hi),
            index=tree,
            handle=handle,
            num_entries=len(entries),
            lsn=max(c.lsn for c in merged),
            deleted_keys=dtree,
            deleted_handle=dhandle,
        )
        self.components[selection] = [comp]
        for old in merged:
            self.cache.evict_file(old.handle)
            self.fm.delete_file(old.handle)
            if old.deleted_handle is not None:
                self.cache.evict_file(old.deleted_handle)
                self.fm.delete_file(old.deleted_handle)
        self.stats.merges += 1
        self.stats.merged_components += len(merged)
        self.stats.entries_merged += len(entries)
        self._save_manifest()
        MERGE_US.observe((time.perf_counter() - started) * 1e6)
        return comp

    # -- introspection ------------------------------------------------------------

    @property
    def num_disk_components(self) -> int:
        return len(self.components)

    def durable_lsn(self) -> int:
        """Newest LSN guaranteed durable (max over disk components)."""
        return max((c.lsn for c in self.components), default=0)

    def _device(self):
        return self.fm.devices[self.device_hint % len(self.fm.devices)]

    def _manifest_path(self) -> str:
        return self._device().path_of(f"{self.name}.manifest")

    def _save_manifest(self) -> None:
        import json

        entries = [
            {
                "file": comp.handle.rel_path,
                "deleted_file": comp.deleted_handle.rel_path,
                "id": list(comp.component_id),
                "entries": comp.num_entries,
                "lsn": comp.lsn,
            }
            for comp in self.components
        ]
        with open(self._manifest_path(), "w") as f:
            json.dump(entries, f)

    @classmethod
    def recover(cls, fm: FileManager, cache: BufferCache, name: str,
                **kwargs) -> "LSMRTree":
        """Reopen from the manifest after a crash (memory component lost;
        WAL replay restores it)."""
        import json

        from repro.storage.rtree import RTree

        lsm = cls(fm, cache, name, **kwargs)
        try:
            with open(lsm._manifest_path()) as f:
                entries = json.load(f)
        except FileNotFoundError:
            return lsm
        max_seq = -1
        for entry in entries:
            handle = fm.open_file(entry["file"], lsm.device_hint)
            dhandle = fm.open_file(entry["deleted_file"], lsm.device_hint)
            comp = DiskComponent(
                component_id=tuple(entry["id"]),
                index=RTree.open(lsm.cache, handle),
                handle=handle,
                num_entries=entry["entries"],
                lsn=entry["lsn"],
                deleted_keys=BTree.open(lsm.cache, dhandle),
                deleted_handle=dhandle,
            )
            lsm.components.append(comp)
            max_seq = max(max_seq, comp.max_seq)
        lsm._next_seq = max_seq + 1
        return lsm

    def drop(self) -> None:
        import os

        try:
            os.remove(self._manifest_path())
        except FileNotFoundError:
            pass
        for comp in self.components:
            self.cache.evict_file(comp.handle)
            self.fm.delete_file(comp.handle)
            if comp.deleted_handle is not None:
                self.cache.evict_file(comp.deleted_handle)
                self.fm.delete_file(comp.deleted_handle)
        self.components.clear()
        self.memory.clear()
        self.memory_deleted.clear()


def _sortable(key):
    from repro.adm.comparators import tuple_key

    return tuple_key(key)
