"""A slotted-page heap file.

Records are byte strings addressed by RID = (page id, slot).  Deleted
slots become ghosts first (so undo can revive them) and are reclaimed
by a system transaction, mirroring the B-tree's ghost discipline.

Design notes:

* the set of pages belonging to the heap is kept in the engine's
  metadata page (key ``heap:<id>``), updated under the allocating
  transaction, so it is crash-consistent;
* free-space hints are volatile (rebuilt lazily); correctness never
  depends on them;
* RIDs are stable: records never move between slots, so a RID stored
  elsewhere (e.g. as a B-tree value, secondary-index style) stays valid
  until the record is deleted.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.errors import KeyNotFound, ReproError
from repro.page.page import Page
from repro.page.slotted import PageFullError, Record, SlottedPage
from repro.sim.stats import Stats
from repro.txn.manager import TransactionManager
from repro.txn.transaction import Transaction
from repro.wal.ops import OpInsert, OpSetGhost, value_rewrite
from repro.wal.records import LogicalUndo, UndoAction


@dataclass(frozen=True, order=True)
class RID:
    """Stable record identifier: (page id, slot index)."""

    page_id: int
    slot: int

    def encode(self) -> bytes:
        return struct.pack("<qH", self.page_id, self.slot)

    @classmethod
    def decode(cls, data: bytes) -> "RID":
        page_id, slot = struct.unpack("<qH", data)
        return cls(page_id, slot)


class HeapFile:
    """A heap of byte-string records over the engine's substrate.

    ``ctx`` is the same engine context the B-tree uses (fix, allocation,
    and ``unfix`` with the first LSN a write logged on the page);
    ``heap_id`` namespaces the page list in the metadata page.
    """

    def __init__(self, heap_id: int, ctx, tm: TransactionManager,  # noqa: ANN001
                 stats: Stats) -> None:
        self.heap_id = heap_id
        self.ctx = ctx
        self.tm = tm
        self.stats = stats
        counter = stats.counter
        self._heap_inserts = counter("heap_inserts")
        self._heap_fetches = counter("heap_fetches")
        self._heap_updates = counter("heap_updates")
        self._heap_deletes = counter("heap_deletes")
        self._heap_scans = counter("heap_scans")
        self._heap_slots_vacuumed = counter("heap_slots_vacuumed")

    # ------------------------------------------------------------------
    # Page-list bookkeeping (crash-consistent via the metadata page)
    # ------------------------------------------------------------------
    def _pages(self) -> list[int]:
        raw = self.ctx.get_heap_pages(self.heap_id)
        return raw

    def _log(self, txn: Transaction, page: Page, op, undo=None) -> int:  # noqa: ANN001
        return self.tm.log_update(txn, page, self._index_tag(), op, undo)

    def _index_tag(self) -> int:
        # Heap ids share the index-id namespace, offset to avoid clashes.
        return 1_000_000 + self.heap_id

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def insert(self, txn: Transaction, payload: bytes) -> RID:
        """Store ``payload``; returns its stable RID.

        The insert's logical undo *ghosts* the slot rather than
        removing it: physically removing a slot would shift the slots
        behind it and invalidate other transactions' RIDs and physical
        undo information.
        """
        if not payload:
            raise ReproError("empty heap records are not supported")
        record = Record(b"", payload)
        for page_id in self._pages():
            page = self.ctx.fix(page_id)
            lsn = None
            try:
                slotted = SlottedPage(page)
                if slotted.room_for(record):
                    slot = slotted.slot_count
                    rid = RID(page_id, slot)
                    lsn = self._log(txn, page, OpInsert(slot, b"", payload),
                                    undo=LogicalUndo(UndoAction.DELETE_KEY,
                                                     rid.encode()))
                    self._heap_inserts.inc()
                    return rid
            finally:
                self.ctx.unfix(page_id, lsn)
        # No room anywhere: grow the heap by one page (dirty since its format).
        page = self.ctx.allocate_heap_page(txn, self.heap_id)
        try:
            rid = RID(page.page_id, 0)
            self._log(txn, page, OpInsert(0, b"", payload),
                      undo=LogicalUndo(UndoAction.DELETE_KEY, rid.encode()))
            self._heap_inserts.inc()
            return rid
        finally:
            self.ctx.unfix(page.page_id)

    def compensate(self, txn: Transaction, undo, undo_next_lsn: int) -> None:  # noqa: ANN001
        """RID-level compensation: undo an insert by ghosting its slot."""
        if undo.action != UndoAction.DELETE_KEY:
            raise ReproError(f"heap cannot compensate {undo.action}")
        rid = RID.decode(undo.key)
        page = self.ctx.fix(rid.page_id)
        lsn = None
        try:
            slotted = SlottedPage(page)
            if rid.slot < slotted.slot_count and not slotted.is_ghost(rid.slot):
                lsn = self.tm.log_compensation(
                    txn, page, self._index_tag(),
                    OpSetGhost(rid.slot, False, True), undo_next_lsn)
        finally:
            self.ctx.unfix(rid.page_id, lsn)

    def fetch(self, rid: RID) -> bytes:
        """The payload stored at ``rid``; raises if absent or deleted."""
        page = self.ctx.fix(rid.page_id)
        try:
            slotted = SlottedPage(page)
            if rid.slot >= slotted.slot_count or slotted.is_ghost(rid.slot):
                raise KeyNotFound(rid.encode())
            self._heap_fetches.inc()
            return slotted.read_record(rid.slot).value
        finally:
            self.ctx.unfix(rid.page_id)

    def update(self, txn: Transaction, rid: RID, payload: bytes) -> None:
        """Replace the payload at ``rid`` in place (RID unchanged)."""
        page = self.ctx.fix(rid.page_id)
        lsn = None
        try:
            slotted = SlottedPage(page)
            if rid.slot >= slotted.slot_count or slotted.is_ghost(rid.slot):
                raise KeyNotFound(rid.encode())
            old = slotted.read_record(rid.slot).value
            new_record = Record(b"", payload)
            if not (slotted.room_for(new_record)
                    or new_record.stored_length <= len(old) + 2):
                raise PageFullError(
                    f"no room to grow record at {rid} in place")
            lsn = self._log(txn, page, value_rewrite(rid.slot, old, payload))
            self._heap_updates.inc()
        finally:
            self.ctx.unfix(rid.page_id, lsn)

    def delete(self, txn: Transaction, rid: RID) -> None:
        """Logical deletion: the slot becomes a ghost."""
        page = self.ctx.fix(rid.page_id)
        lsn = None
        try:
            slotted = SlottedPage(page)
            if rid.slot >= slotted.slot_count or slotted.is_ghost(rid.slot):
                raise KeyNotFound(rid.encode())
            lsn = self._log(txn, page, OpSetGhost(rid.slot, False, True))
            self._heap_deletes.inc()
        finally:
            self.ctx.unfix(rid.page_id, lsn)

    def scan(self) -> list[tuple[RID, bytes]]:
        """All live records in RID order."""
        out: list[tuple[RID, bytes]] = []
        for page_id in self._pages():
            page = self.ctx.fix(page_id)
            try:
                slotted = SlottedPage(page)
                for slot in range(slotted.slot_count):
                    if not slotted.is_ghost(slot):
                        out.append((RID(page_id, slot),
                                    slotted.read_record(slot).value))
            finally:
                self.ctx.unfix(page_id)
        self._heap_scans.inc()
        return out

    def vacuum(self) -> int:
        """Reclaim ghost slots' space (a system transaction per page).

        Slots are *kept* (RID stability): the record bytes shrink to an
        empty tombstone rather than disappearing, and the space returns
        to the page.  Returns tombstoned slot count.
        """
        reclaimed = 0
        for page_id in self._pages():
            sys_txn = self.tm.begin(system=True)
            page = self.ctx.fix(page_id)
            dirty = None
            try:
                slotted = SlottedPage(page)
                for slot in range(slotted.slot_count):
                    if not slotted.is_ghost(slot):
                        continue
                    old = slotted.read_record(slot).value
                    if old:
                        lsn = self._log(sys_txn, page,
                                        value_rewrite(slot, old, b""))
                        dirty = dirty or lsn
                        reclaimed += 1
                self.tm.commit(sys_txn)
            finally:
                self.ctx.unfix(page_id, dirty)
        if reclaimed:
            self._heap_slots_vacuumed.inc(reclaimed)
        return reclaimed

    def count(self) -> int:
        return len(self.scan())
