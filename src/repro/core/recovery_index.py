"""The page recovery index (PRI) — Section 5.2.2, Figure 7.

For every data page the PRI tracks two things:

* **Backup page**: where the most recent backup image of the page
  lives — an explicit page copy, a full-page image in the log, a page
  of a full database backup, or the page's formatting log record.
* **Log sequence number**: the LSN of the most recent log record
  pertaining to the page — *valid only while the page is not resident
  in the buffer pool* and only if the page has been updated since the
  last backup.  While the page is buffered the entry "may fall behind"
  (Figure 6); it is brought up to date when the cleaned page is
  written back (Figure 11).

The index is **ordered and range-compressed**: "a single entry should
cover a large range of pages if they all have the same mapping, e.g., a
backup of the entire database.  If only one page within such a range is
given a new backup page, the range must be split as appropriate."  The
worst case is one entry per page at ~16 bytes, about 1 permille of the
database size, small enough to keep in memory at all times — which is
exactly how this implementation treats it.  The engine persists it at
checkpoints into a page region whose format this module alone declares.
"""

from __future__ import annotations

import bisect
import struct
from dataclasses import dataclass

from repro.errors import RecoveryError
from repro.page.page import HEADER_SIZE, Page, PageType
from repro.sync import Mutex
from repro.wal.records import BackupRef, BackupRefKind

#: Figure 7 / Section 5.2.2: "the size of the page recovery index may
#: reach about 16 bytes per database page" — the per-page entry cost we
#: account for point entries.
POINT_ENTRY_BYTES = 16
#: A range entry additionally stores the range end.
RANGE_ENTRY_BYTES = 24

#: The region format (Section 5.2.6): a region page holds one chunk of
#: its partition's snapshot — after the page header, ``(chunk length,
#: sequence number, chunks in the snapshot)``, then the chunk.  A page
#: holds ``page_size - REGION_PAGE_OVERHEAD`` bytes of snapshot.
CHUNK_HEADER = struct.Struct("<IHH")
CHUNK_AT = HEADER_SIZE + CHUNK_HEADER.size
REGION_PAGE_OVERHEAD = 64


@dataclass(frozen=True)
class PriEntry:
    """What a PRI lookup returns for one page (Figure 7's two fields,
    plus the backup age used by the freshness policy of Section 6)."""

    backup_ref: BackupRef
    backup_page_lsn: int
    last_lsn: int | None
    backup_time: float

    @property
    def has_backup(self) -> bool:
        return self.backup_ref.kind != BackupRefKind.NONE


class PageRecoveryIndex:
    """Ordered, range-compressed page recovery index.

    Ranges are half-open ``[start, end)`` and non-overlapping, kept in
    a sorted list; point updates split the covering range.  Per-page
    LSNs are held separately (they are inherently per-page).
    """

    def __init__(self) -> None:
        # Parallel arrays sorted by range start.
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._refs: list[BackupRef] = []
        self._lsns: list[int] = []      # backup_page_lsn per range
        self._times: list[float] = []   # backup_time per range
        self._page_lsns: dict[int, int] = {}
        # Lookups and maintenance run from concurrent sessions (the
        # repair path updates the index on reads); one mutex keeps the
        # parallel arrays consistent.
        self._mutex = Mutex()

    # ------------------------------------------------------------------
    # Range machinery
    # ------------------------------------------------------------------
    def _find_range(self, page_id: int) -> int | None:
        """Index of the range containing ``page_id``, or None."""
        pos = bisect.bisect_right(self._starts, page_id) - 1
        if pos >= 0 and self._ends[pos] > page_id:
            return pos
        return None

    def _insert_range(self, pos: int, start: int, end: int, ref: BackupRef,
                      lsn: int, time: float) -> None:
        self._starts.insert(pos, start)
        self._ends.insert(pos, end)
        self._refs.insert(pos, ref)
        self._lsns.insert(pos, lsn)
        self._times.insert(pos, time)

    def _delete_ranges(self, lo: int, hi: int) -> None:
        del self._starts[lo:hi]
        del self._ends[lo:hi]
        del self._refs[lo:hi]
        del self._lsns[lo:hi]
        del self._times[lo:hi]

    # ------------------------------------------------------------------
    # Backup bookkeeping
    # ------------------------------------------------------------------
    def set_backup(self, page_id: int, ref: BackupRef, page_lsn: int,
                   now: float = 0.0) -> BackupRef | None:
        """Record a new backup for one page; returns the *old* backup
        reference so the caller can free it ("used when freeing the old
        backup page when taking a new page backup", Figure 7)."""
        with self._mutex:
            return self._set_backup_locked(page_id, ref, page_lsn, now)

    def _set_backup_locked(self, page_id: int, ref: BackupRef, page_lsn: int,
                           now: float) -> BackupRef | None:
        pos, old_ref = self._cut_page(page_id)
        self._insert_range(pos, page_id, page_id + 1, ref, page_lsn, now)
        # Page is now backed up as of page_lsn; a previously recorded
        # "updated since backup" LSN is superseded unless newer.
        recorded = self._page_lsns.get(page_id)
        if recorded is not None and recorded <= page_lsn:
            del self._page_lsns[page_id]
        return old_ref

    def _cut_page(self, page_id: int) -> tuple[int, BackupRef | None]:
        """Take ``page_id`` out of the range covering it, splitting the
        range as appropriate; returns where a point entry for the page
        belongs and the reference that covered it (if any)."""
        pos = self._find_range(page_id)
        if pos is None:
            return bisect.bisect_right(self._starts, page_id), None
        start, end = self._starts[pos], self._ends[pos]
        old = (self._refs[pos], self._lsns[pos], self._times[pos])
        self._delete_ranges(pos, pos + 1)
        if page_id + 1 < end:
            self._insert_range(pos, page_id + 1, end, *old)
        if start < page_id:
            self._insert_range(pos, start, page_id, *old)
            pos += 1
        return pos, old[0]

    def forget(self, page_id: int) -> None:
        """The page left the database (a recovery-index region page no
        snapshot occupies any more): it has no backup worth retaining
        and no PageLSN to expect, so it must stop pinning the log."""
        with self._mutex:
            self._cut_page(page_id)
            self._page_lsns.pop(page_id, None)

    def set_range_backup(self, start: int, end: int, ref: BackupRef,
                         page_lsn: int, now: float = 0.0) -> None:
        """One entry covering ``[start, end)`` — e.g. a full database
        backup.  Replaces everything it overlaps."""
        if start >= end:
            raise ValueError("empty range")
        with self._mutex:
            self._set_range_backup_locked(start, end, ref, page_lsn, now)

    def _set_range_backup_locked(self, start: int, end: int, ref: BackupRef,
                                 page_lsn: int, now: float) -> None:
        # Trim or split existing overlapping ranges.
        lo = bisect.bisect_right(self._starts, start) - 1
        if lo < 0:
            lo = 0
        new: list[tuple[int, int, BackupRef, int, float]] = []
        remove_from, remove_to = None, None
        i = lo
        while i < len(self._starts) and self._starts[i] < end:
            s, e = self._starts[i], self._ends[i]
            if e <= start:
                i += 1
                continue
            if remove_from is None:
                remove_from = i
            remove_to = i + 1
            keep = (self._refs[i], self._lsns[i], self._times[i])
            if s < start:
                new.append((s, start, *keep))
            if e > end:
                new.append((end, e, *keep))
            i += 1
        if remove_from is not None:
            self._delete_ranges(remove_from, remove_to)
        insert_at = bisect.bisect_right(self._starts, start)
        for entry in sorted(new + [(start, end, ref, page_lsn, now)]):
            pos = bisect.bisect_right(self._starts, entry[0])
            self._insert_range(pos, *entry)
        # Backup supersedes recorded per-page LSNs up to page_lsn.
        for pid in [p for p in self._page_lsns if start <= p < end]:
            if self._page_lsns[pid] <= page_lsn:
                del self._page_lsns[pid]

    # ------------------------------------------------------------------
    # Per-page LSN bookkeeping (Figure 11)
    # ------------------------------------------------------------------
    def record_write(self, page_id: int, page_lsn: int) -> None:
        """A cleaned data page was written back with this PageLSN."""
        with self._mutex:
            self._page_lsns[page_id] = page_lsn

    def recorded_lsn(self, page_id: int) -> int | None:
        return self._page_lsns.get(page_id)

    # ------------------------------------------------------------------
    # Lookup (the read path, Figures 8 and 9)
    # ------------------------------------------------------------------
    def lookup(self, page_id: int) -> PriEntry:
        """Entry for ``page_id``; raises if the page is not covered."""
        with self._mutex:
            pos = self._find_range(page_id)
            if pos is None:
                raise RecoveryError(
                    f"page {page_id} has no entry in the page recovery index")
            return PriEntry(self._refs[pos], self._lsns[pos],
                            self._page_lsns.get(page_id), self._times[pos])

    def covers(self, page_id: int) -> bool:
        with self._mutex:
            return self._find_range(page_id) is not None

    def expected_page_lsn(self, page_id: int) -> int | None:
        """The PageLSN a freshly read page must carry.

        This is the cross-check the paper attributes to Gary Smith:
        "comparing the PageLSN of a page newly read into the buffer
        pool with the information in the page recovery index."  Returns
        None when the page is unknown to the index.
        """
        with self._mutex:
            recorded = self._page_lsns.get(page_id)
            if recorded is not None:
                return recorded
            pos = self._find_range(page_id)
            if pos is None:
                return None
            if self._ends[pos] - self._starts[pos] == 1:
                # A point entry's backup LSN is exact for this page.
                return self._lsns[pos]
        # A range entry (e.g. a full database backup) stores one LSN
        # for many pages; it bounds but does not pin any single page's
        # PageLSN, so no exact expectation exists yet.
        return None

    # ------------------------------------------------------------------
    # Size accounting (Figure 7 discussion)
    # ------------------------------------------------------------------
    @property
    def range_count(self) -> int:
        return len(self._starts)

    @property
    def point_lsn_count(self) -> int:
        return len(self._page_lsns)

    def estimated_bytes(self) -> int:
        """Approximate in-memory/persisted footprint."""
        range_bytes = sum(
            RANGE_ENTRY_BYTES if self._ends[i] - self._starts[i] > 1
            else POINT_ENTRY_BYTES
            for i in range(len(self._starts)))
        return range_bytes + POINT_ENTRY_BYTES * len(self._page_lsns)

    # ------------------------------------------------------------------
    # Serialization (checkpoint persistence, Section 5.2.6)
    # ------------------------------------------------------------------
    _RANGE_STRUCT = struct.Struct("<qqBqqd")
    _LSN_STRUCT = struct.Struct("<qq")

    def serialize(self) -> bytes:
        with self._mutex:
            return self._serialize_locked()

    def _serialize_locked(self) -> bytes:
        out = [struct.pack("<II", len(self._starts), len(self._page_lsns))]
        for i in range(len(self._starts)):
            out.append(self._RANGE_STRUCT.pack(
                self._starts[i], self._ends[i], int(self._refs[i].kind),
                self._refs[i].value, self._lsns[i], self._times[i]))
        for page_id, lsn in sorted(self._page_lsns.items()):
            out.append(self._LSN_STRUCT.pack(page_id, lsn))
        return b"".join(out)

    @classmethod
    def deserialize(cls, data: bytes) -> "PageRecoveryIndex":
        """The index :meth:`serialize` wrote, or :class:`RecoveryError`
        for a blob of any other length or with an unknown backup kind."""
        try:
            n_ranges, n_lsns = struct.unpack_from("<II", data, 0)
        except struct.error:
            raise RecoveryError(f"recovery-index blob of {len(data)} bytes "
                                f"is shorter than its header") from None
        size = (8 + n_ranges * cls._RANGE_STRUCT.size
                + n_lsns * cls._LSN_STRUCT.size)
        if size != len(data):
            raise RecoveryError(
                f"recovery-index blob of {len(data)} bytes declares "
                f"{n_ranges} ranges and {n_lsns} LSNs ({size} bytes)")
        pri = cls()
        pos = 8
        for _ in range(n_ranges):
            start, end, kind, value, lsn, time = cls._RANGE_STRUCT.unpack_from(data, pos)
            pos += cls._RANGE_STRUCT.size
            try:
                ref_kind = BackupRefKind(kind)
            except ValueError:
                raise RecoveryError(
                    f"recovery-index range {start}..{end} has unknown "
                    f"backup kind {kind}") from None
            pri._starts.append(start)
            pri._ends.append(end)
            pri._refs.append(BackupRef(ref_kind, value))
            pri._lsns.append(lsn)
            pri._times.append(time)
        for _ in range(n_lsns):
            page_id, lsn = cls._LSN_STRUCT.unpack_from(data, pos)
            pos += cls._LSN_STRUCT.size
            pri._page_lsns[page_id] = lsn
        return pri

    def load(self, data: bytes) -> None:
        """Replace every entry with those of the snapshot ``data``
        (restart loads the persisted index into the one the engine
        holds)."""
        loaded = self.deserialize(data)
        with self._mutex:
            self._starts, self._ends, self._refs = (
                loaded._starts, loaded._ends, loaded._refs)
            self._lsns, self._times, self._page_lsns = (
                loaded._lsns, loaded._times, loaded._page_lsns)


class PartitionedRecoveryIndex:
    """Two-partition PRI for self-coverage (Section 5.2.2).

    "In order to prevent a data page containing information required
    for its own recovery, the database and the page recovery index
    might each be divided into two pieces such that the one piece of
    the page recovery index is stored in one piece of the database yet
    covers all data pages in the other piece of the database."

    Pages with even ids belong to partition 0, odd ids to partition 1.
    Partition ``p`` of the *index* covers the data pages of partition
    ``1 - p`` and is persisted into pages of partition ``p`` — so no
    page's recovery information lives on the page itself, and losing a
    PRI page costs only entries recoverable via the *other* partition.
    """

    def __init__(self) -> None:
        self.partitions = (PageRecoveryIndex(), PageRecoveryIndex())

    @staticmethod
    def partition_of_data_page(page_id: int) -> int:
        """Which *index* partition covers this data page."""
        return 1 - (page_id % 2)

    # The facade mirrors PageRecoveryIndex, dispatching by page id:
    # ``partitions[1 - page_id % 2]`` is :meth:`partition_of_data_page`
    # spelled in place (a PRI lookup runs on every device read).
    def set_backup(self, page_id: int, ref: BackupRef, page_lsn: int,
                   now: float = 0.0) -> BackupRef | None:
        return self.partitions[1 - page_id % 2].set_backup(page_id, ref, page_lsn, now)

    def set_range_backup(self, start: int, end: int, ref: BackupRef,
                         page_lsn: int, now: float = 0.0) -> None:
        for partition in self.partitions:
            # Each partition stores only its own pages' entries, but a
            # range applies to both parities; store it in both, scoped.
            partition.set_range_backup(start, end, ref, page_lsn, now)

    def record_write(self, page_id: int, page_lsn: int) -> None:
        self.partitions[1 - page_id % 2].record_write(page_id, page_lsn)

    def forget(self, page_id: int) -> None:
        self.partitions[1 - page_id % 2].forget(page_id)

    def lookup(self, page_id: int) -> PriEntry:
        return self.partitions[1 - page_id % 2].lookup(page_id)

    def covers(self, page_id: int) -> bool:
        return self.partitions[1 - page_id % 2].covers(page_id)

    def expected_page_lsn(self, page_id: int) -> int | None:
        return self.partitions[1 - page_id % 2].expected_page_lsn(page_id)

    def recorded_lsn(self, page_id: int) -> int | None:
        return self.partitions[1 - page_id % 2].recorded_lsn(page_id)

    # What log retention, backup retirement and copy-forward derive from
    # the entries.
    def full_backups_in_use(self) -> set[int]:
        """Ids of the full backups any entry references."""
        return {ref.value for partition in self.partitions
                for ref in partition._refs
                if ref.kind == BackupRefKind.FULL_BACKUP}

    def log_floor(self) -> int | None:
        """Oldest LSN single-page recovery may read, or None: backups
        that live in the log, and the backup LSN of each page updated
        since its backup (Figure 7: the LSN field is only valid then)."""
        lsns = [ref.value for partition in self.partitions
                for ref in partition._refs
                if ref.kind in (BackupRefKind.LOG_IMAGE,
                                BackupRefKind.FORMAT_RECORD)]
        for partition in self.partitions:
            for page_id in partition._page_lsns:
                pos = partition._find_range(page_id)
                if pos is not None:
                    lsns.append(partition._lsns[pos])
        return min(lsns, default=None)

    def pages_backed_up_before(self, lsn: int, budget: int) -> list[int]:
        """Sorted ids of the pages whose backup predates ``lsn``, taken
        from entries of at most ``budget`` pages (a huge stale range
        needs a full backup, not page copies)."""
        pages: set[int] = set()
        for partition in self.partitions:
            for i in range(len(partition._starts)):
                start, end = partition._starts[i], partition._ends[i]
                if partition._lsns[i] < lsn and end - start <= budget:
                    pages.update(range(start, end))
        return sorted(pages)

    # The region (Section 5.2.6): partition p's snapshot is cut into
    # chunks, one per region page of parity p.
    @staticmethod
    def region_pages(start: int, end: int,
                     per_partition: int) -> tuple[list[int], list[int]]:
        """Each partition's region pages in ``[start, end)``: parity-p
        pages hold partition p, which covers only parity-(1-p) pages, so
        no page holds what its own recovery needs (Section 5.2.2)."""
        return tuple([pid for pid in range(start, end)
                      if pid % 2 == partition][:per_partition]
                     for partition in (0, 1))

    def snapshot_chunks(self, page_size: int) -> list[list[bytes]]:
        """Each partition's snapshot as the chunks its region pages hold
        (at least one: a snapshot is never empty)."""
        capacity = page_size - REGION_PAGE_OVERHEAD
        chunks = []
        for partition in self.partitions:
            blob = partition.serialize()
            chunks.append([blob[at:at + capacity]
                           for at in range(0, len(blob), capacity)])
        return chunks

    @staticmethod
    def region_page(page_size: int, page_id: int, chunk: bytes, seq: int,
                    total: int) -> Page:
        """The sealed region page holding chunk ``seq`` of ``total``."""
        page = Page.format(page_size, page_id, PageType.RECOVERY_INDEX)
        CHUNK_HEADER.pack_into(page.data, HEADER_SIZE, len(chunk), seq, total)
        page.data[CHUNK_AT:CHUNK_AT + len(chunk)] = chunk
        page.seal()
        return page

    def load_region(self, partition: int, pages: list[bytearray]) -> None:
        """Replace ``partition``'s entries with its region pages'
        snapshot (pages in any order)."""
        chunks: dict[int, bytes] = {}
        for data in pages:
            length, seq, _total = CHUNK_HEADER.unpack_from(data, HEADER_SIZE)
            chunks[seq] = bytes(data[CHUNK_AT:CHUNK_AT + length])
        self.partitions[partition].load(
            b"".join(chunks[seq] for seq in sorted(chunks)))

