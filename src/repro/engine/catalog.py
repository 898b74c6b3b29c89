"""The engine catalog: metadata-page records and object registries.

Everything the engine knows about *names* lives here:

* the slotted **metadata page** (page 0) holding typed key/value
  records — allocation state, index roots, heap page lists;
* the **index registry**: index-id assignment, root-page lookup with a
  volatile cache, and the live :class:`FosterBTree` handles;
* the **heap registry**: heap-id assignment, crash-consistent per-heap
  page lists, and the live :class:`HeapFile` handles.

All durable state is ordinary logged page updates on the metadata
page, so the catalog is crash-consistent for free; the caches and
handle registries are volatile and dropped by
:meth:`invalidate_volatile` on crash or media failure.
"""

from __future__ import annotations

import struct

from repro.btree.tree import FosterBTree
from repro.errors import ConfigError, StorageError
from repro.page.slotted import SlottedPage
from repro.txn.transaction import Transaction
from repro.wal.ops import OpInsert, value_rewrite

METADATA_PAGE = 0

#: Heap ids share the index-id namespace, offset to avoid clashes.
HEAP_INDEX_OFFSET = 1_000_000


class Catalog:
    """Metadata and object catalogs over the engine's metadata page."""

    def __init__(self, db) -> None:  # noqa: ANN001 - Database facade
        self.db = db
        self.trees: dict[int, FosterBTree] = {}
        self.heaps: dict[int, object] = {}
        self._root_cache: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Metadata-page record primitives
    # ------------------------------------------------------------------
    @staticmethod
    def _find(slotted: SlottedPage, key: bytes) -> int | None:
        for i in range(slotted.slot_count):
            if slotted.record_key(i) == key:
                return i
        return None

    def get_int(self, key: bytes) -> int | None:
        blob = self.get_blob(key)
        if blob is None:
            return None
        return struct.unpack("<q", blob)[0]

    def set_int(self, txn: Transaction, key: bytes, value: int) -> None:
        self.set_blob(txn, key, struct.pack("<q", value))

    def get_blob(self, key: bytes) -> bytes | None:
        page = self.db.pool.fix(METADATA_PAGE)
        try:
            slotted = SlottedPage(page)
            slot = self._find(slotted, key)
            if slot is None:
                return None
            return slotted.read_record(slot).value
        finally:
            self.db.pool.unfix(METADATA_PAGE)

    def set_blob(self, txn: Transaction, key: bytes, value: bytes) -> None:
        page = self.db.pool.fix(METADATA_PAGE)
        lsn = None
        try:
            slotted = SlottedPage(page)
            slot = self._find(slotted, key)
            if slot is None:
                op = OpInsert(slotted.slot_count, key, value)
            else:
                op = value_rewrite(slot, slotted.read_record(slot).value, value)
            lsn = self.db.tm.log_update(txn, page, 0, op)
        finally:
            self.db.pool.unfix(METADATA_PAGE, lsn)

    # ------------------------------------------------------------------
    # Index roots
    # ------------------------------------------------------------------
    def get_root(self, index_id: int) -> int:
        root = self._root_cache.get(index_id)
        if root is None:
            root = self.get_int(b"root:%d" % index_id)
            if root is None:
                raise ConfigError(f"index {index_id} does not exist")
            self._root_cache[index_id] = root
        return root

    def set_root(self, txn: Transaction, index_id: int, root_pid: int) -> None:
        self.set_int(txn, b"root:%d" % index_id, root_pid)
        self._root_cache[index_id] = root_pid

    # ------------------------------------------------------------------
    # Object-id assignment
    # ------------------------------------------------------------------
    def reserve_object_id(self, txn: Transaction) -> int:
        """Claim the next index/heap id (one shared namespace)."""
        next_id = self.get_int(b"next_index")
        if next_id is None:
            raise StorageError(
                "metadata page has no 'next_index' record — the catalog "
                "is corrupt beyond what page recovery repaired")
        self.set_int(txn, b"next_index", next_id + 1)
        return next_id

    # ------------------------------------------------------------------
    # Indexes
    # ------------------------------------------------------------------
    def create_index(self) -> FosterBTree:
        """Create a new Foster B-tree; returns the tree handle."""
        db = self.db
        sys_txn = db.tm.begin(system=True)
        next_id = self.reserve_object_id(sys_txn)
        db.tm.commit(sys_txn)
        tree = FosterBTree.create(next_id, db, db.tm, db.stats)
        self.trees[next_id] = tree
        # DDL durability: creating an index must survive a crash even
        # before the first user commit forces the log.
        db.log.force()
        return tree

    def tree(self, index_id: int) -> FosterBTree:
        tree = self.trees.get(index_id)
        if tree is None:
            # Re-attach after restart: the root lives in the metadata page.
            self.get_root(index_id)
            tree = FosterBTree(index_id, self.db, self.db.tm, self.db.stats)
            self.trees[index_id] = tree
        return tree

    # ------------------------------------------------------------------
    # Heaps
    # ------------------------------------------------------------------
    def create_heap(self):  # noqa: ANN201 - returns HeapFile
        """Create a new heap file; returns the heap handle."""
        from repro.heap.heapfile import HeapFile

        db = self.db
        sys_txn = db.tm.begin(system=True)
        next_id = self.reserve_object_id(sys_txn)
        self.set_blob(sys_txn, b"heap:%d" % next_id, b"")
        db.tm.commit(sys_txn)
        heap = HeapFile(next_id, db, db.tm, db.stats)
        self.heaps[next_id] = heap
        # DDL durability, as for create_index.
        db.log.force()
        return heap

    def heap(self, heap_id: int):  # noqa: ANN201
        heap = self.heaps.get(heap_id)
        if heap is None:
            from repro.heap.heapfile import HeapFile

            if self.get_blob(b"heap:%d" % heap_id) is None:
                raise ConfigError(f"heap {heap_id} does not exist")
            heap = HeapFile(heap_id, self.db, self.db.tm, self.db.stats)
            self.heaps[heap_id] = heap
        return heap

    def get_heap_pages(self, heap_id: int) -> list[int]:
        blob = self.get_blob(b"heap:%d" % heap_id)
        if blob is None:
            raise ConfigError(f"heap {heap_id} does not exist")
        count = len(blob) // 8
        return [struct.unpack_from("<q", blob, i * 8)[0] for i in range(count)]

    def set_heap_pages(self, txn: Transaction, heap_id: int,
                       pages: list[int]) -> None:
        blob = b"".join(struct.pack("<q", pid) for pid in pages)
        self.set_blob(txn, b"heap:%d" % heap_id, blob)

    # ------------------------------------------------------------------
    # Volatile state
    # ------------------------------------------------------------------
    def invalidate_volatile(self) -> None:
        """Drop caches and handles (crash / media-failure simulation)."""
        self._root_cache.clear()
        self.trees.clear()
        self.heaps.clear()
