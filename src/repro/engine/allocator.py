"""Page allocation and the free-space pool.

Allocation state is two records on the metadata page, owned by the
catalog: ``next_free`` (the device high-water mark) and ``freelist``
(a packed stack of freed page ids for deferred reuse, Section 5.2.3).
Both the free-list pop and the high-water-mark bump are logged
metadata updates, so allocation is crash-consistent; the formatting
record then resets the new page's log chain and doubles as its backup
image (Section 5.2.1).
"""

from __future__ import annotations

import struct

from repro.errors import MediaFailure
from repro.page.page import Page, PageType
from repro.txn.transaction import Transaction
from repro.wal.ops import OpInitSlotted


class PageAllocator:
    """Allocates, formats, and frees pages for one database."""

    def __init__(self, db) -> None:  # noqa: ANN001 - Database facade
        self.db = db
        self._pages_freed = db.stats.counter("pages_freed")

    def allocate_page(self, txn: Transaction, page_type: PageType,
                      index_id: int) -> Page:
        """Allocate a page: reuse the free list, else extend the heap."""
        db = self.db
        page_id = self._pop_free_list(txn)
        if page_id is None:
            next_free = db.catalog.get_int(b"next_free")
            assert next_free is not None
            if next_free >= db.config.capacity_pages:
                raise MediaFailure(db.device.name, "device full")
            db.catalog.set_int(txn, b"next_free", next_free + 1)
            page_id = next_free
        page = Page.format(db.config.page_size, page_id, page_type)
        if db.pool.resident(page_id):
            # A freed page may still have a stale (clean) frame.
            db.pool.drop_frame(page_id)
        if db.pending_recovery is not None:
            # Reformatting supersedes any pending recovery of the page:
            # "it has the same effect as a successful write" (Section
            # 5.1.2), so neither its redo nor its backup image is needed.
            db.pending_recovery.discard_page(page_id)
        db.pool.fix_new(page)
        format_lsn = db.tm.log_format(txn, page, index_id,
                                      OpInitSlotted(page_type))
        db.note_format(page_id, format_lsn)
        db.pool.mark_dirty(page_id, format_lsn)
        return page

    def free_page(self, page_id: int) -> None:
        """Return a page to the free-space pool (deferred reuse).

        Used after page migration: "the old, failed location can be
        deallocated to the free space pool" (Section 5.2.3).  The
        release is logged via the metadata page under a system
        transaction.
        """
        db = self.db
        sys_txn = db.tm.begin(system=True)
        blob = db.catalog.get_blob(b"freelist") or b""
        db.catalog.set_blob(sys_txn, b"freelist",
                            blob + struct.pack("<q", page_id))
        db.tm.commit(sys_txn)
        self._pages_freed.inc()

    def _pop_free_list(self, txn: Transaction) -> int | None:
        blob = self.db.catalog.get_blob(b"freelist")
        if not blob:
            return None
        page_id = struct.unpack_from("<q", blob, len(blob) - 8)[0]
        self.db.catalog.set_blob(txn, b"freelist", blob[:-8])
        return page_id

    def allocated_pages(self) -> int:
        """Device high-water mark (first never-allocated page id)."""
        return (self.db.catalog.get_int(b"next_free")
                or self.db.config.data_start)
