"""The engine catalog: metadata-page records and object registries.

Everything the engine knows about *names* lives here:

* the slotted **metadata page** (page 0) holding typed key/value
  records — allocation state, index roots, the free list;
* the **index registry**: index-id assignment, root-page lookup with a
  volatile cache, and the live :class:`FosterBTree` handles.

All durable state is ordinary logged page updates on the metadata
page, so the catalog is crash-consistent for free; the caches and
handle registries are volatile, and a crash or a media failure drops
them with the catalog itself (the engine opens a new one).
"""

from __future__ import annotations

import struct

from repro.btree.tree import FosterBTree
from repro.errors import ConfigError, StorageError
from repro.page.slotted import SlottedPage
from repro.txn.transaction import Transaction
from repro.wal.ops import insert, value_rewrite

METADATA_PAGE = 0


class TreeRegistry(dict):
    """Index id -> attached tree handle.  A hit is a plain dict lookup,
    ``catalog.trees[index_id]`` with no Python frame (the embedded
    client and the shard worker ask on every operation); a miss
    re-attaches the index, as after a restart, whose root lives in the
    metadata page."""

    def __init__(self, catalog: "Catalog") -> None:
        super().__init__()
        self.catalog = catalog

    def __missing__(self, index_id: int) -> FosterBTree:
        db = self.catalog.db
        self.catalog.get_root(index_id)
        tree = self[index_id] = FosterBTree(index_id, db, db.tm, db.stats)
        return tree


class Catalog:
    """Metadata and object catalogs over the engine's metadata page."""

    def __init__(self, db) -> None:  # noqa: ANN001 - Database facade
        self.db = db
        self.trees = TreeRegistry(self)
        #: index id -> root page id, the volatile cache :meth:`get_root`
        #: fills (a descent reads it in place)
        self.roots: dict[int, int] = {}

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
                op = insert(slotted.slot_count, key, value)
            else:
                op = value_rewrite(slot, slotted.read_record(slot).value,
                                   value)[0]
            lsn = self.db.tm.log_update(txn, METADATA_PAGE, page, 0, op)
        finally:
            self.db.pool.unfix(METADATA_PAGE, lsn)

    # ------------------------------------------------------------------
    # Index roots
    # ------------------------------------------------------------------
    def get_root(self, index_id: int) -> int:
        root = self.roots.get(index_id)
        if root is None:
            root = self.get_int(b"root:%d" % index_id)
            if root is None:
                raise ConfigError(f"index {index_id} does not exist")
            self.roots[index_id] = root
        return root

    def set_root(self, txn: Transaction, index_id: int, root_pid: int) -> None:
        self.set_int(txn, b"root:%d" % index_id, root_pid)
        self.roots[index_id] = root_pid

    # ------------------------------------------------------------------
    # Object-id assignment
    # ------------------------------------------------------------------
    def reserve_object_id(self, txn: Transaction) -> int:
        """Claim the next index id."""
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
