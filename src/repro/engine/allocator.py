"""Page allocation.

Allocation state is one record on the metadata page, owned by the
catalog: ``next_free``, the device high-water mark.  Allocation bumps
it as a logged metadata update, so it is crash-consistent, and a
rolled-back allocation gives the page id back; the formatting record
then resets the new page's log chain and doubles as its backup image
(Section 5.2.1).
"""

from __future__ import annotations

from repro.errors import MediaFailure
from repro.page.page import Page, PageType
from repro.txn.transaction import Transaction
from repro.wal.ops import init_slotted


class PageAllocator:
    """Allocates and formats pages for one database."""

    def __init__(self, db) -> None:  # noqa: ANN001 - Database facade
        self.db = db

    def allocate_page(self, txn: Transaction, page_type: PageType,
                      index_id: int) -> Page:
        """Allocate a page at the high-water mark and format it."""
        db = self.db
        page_id = db.catalog.get_int(b"next_free")
        assert page_id is not None
        if page_id >= db.config.capacity_pages:
            raise MediaFailure(db.device.name, "device full")
        db.catalog.set_int(txn, b"next_free", page_id + 1)
        page = Page.format(db.config.page_size, page_id, page_type)
        if db.pool.resident(page_id):
            # A rolled-back allocation gave this id back, and its old
            # incarnation may still have a (clean) frame.
            db.pool.drop_frame(page_id)
        if db.pending_recovery is not None:
            # Reformatting supersedes any pending recovery of the page:
            # "it has the same effect as a successful write" (Section
            # 5.1.2), so neither its redo nor its backup image is needed.
            db.pending_recovery.discard_page(page_id)
        db.pool.fix_new(page)
        format_lsn = db.tm.log_format(txn, page, index_id,
                                      init_slotted(page_type))
        db.note_format(page_id, format_lsn)
        db.pool.mark_dirty(page_id, format_lsn)
        return page

    def allocated_pages(self) -> int:
        """Device high-water mark (first never-allocated page id)."""
        return (self.db.catalog.get_int(b"next_free")
                or self.db.config.data_start)
