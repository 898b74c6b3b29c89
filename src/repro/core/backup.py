"""Backup-image sources for single-page recovery (Section 5.2.1).

Four sources, matching the paper:

1. **Full database backup** — "the same type of archive copy as
   required after a media failure"; for single-page recovery it should
   live on direct-access media (fetching one page from a sequentially
   compressed archive is charged accordingly — that is the point of
   the paper's "less than ideal" remark).
2. **Explicit page copies** — "a conservative policy might take such a
   copy after every 100 updates of a data page"; copies are written to
   a backup area, and a new copy never overwrites the old one ("it is
   not a good idea to overwrite an existing backup page, because the
   backup and recovery functionality are lost if this write operation
   fails") — the old copy is freed only after the new one is durable,
   using the old location remembered in the page recovery index.
3. **In-log full page images** — a (compressed) copy of the page in
   the recovery log.
4. **Formatting log records** — for a freshly allocated page, the
   format record *is* the backup.

Retained pre-move images from page migration (wear levelling,
defragmentation) are page copies taken at migration time, so they fall
out of source 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BackupRetired, RecoveryError, StorageError
from repro.page.page import Page
from repro.sim.clock import SimClock
from repro.sim.iomodel import IOProfile
from repro.sim.stats import Stats
from repro.wal.log_reader import LogReader
from repro.wal.records import (
    BackupRef,
    BackupRefKind,
    LogRecordKind,
    compress_image,
    decompress_image,
)


@dataclass
class BackupPolicy:
    """When to take a fresh page copy (Section 6).

    "Fast single-page recovery can be ensured with a page backup after
    a number of updates or after a period since the last page backup."
    """

    every_n_updates: int | None = None
    max_age_seconds: float | None = None

    def due(self, update_count: int, age_seconds: float) -> bool:
        if self.every_n_updates is not None and update_count >= self.every_n_updates:
            return True
        if self.max_age_seconds is not None and age_seconds >= self.max_age_seconds:
            return True
        return False

    @classmethod
    def disabled(cls) -> "BackupPolicy":
        return cls(None, None)


class BackupStore:
    """Holds full backups and explicit page copies on a backup medium.

    The backup medium has its own I/O profile; experiments switch it
    between direct-access disk and archive media to reproduce the
    paper's point about backup placement.
    """

    def __init__(self, clock: SimClock, profile: IOProfile, stats: Stats,
                 page_size: int) -> None:
        self.clock = clock
        self.profile = profile
        self.stats = stats
        counter = stats.counter
        self._full_backups_taken = counter("full_backups_taken")
        self._full_backups_restored = counter("full_backups_restored")
        self._full_backups_retired = counter("full_backups_retired")
        self._backup_page_fetches = counter("backup_page_fetches")
        self._page_copies_taken = counter("page_copies_taken")
        self._page_copies_freed = counter("page_copies_freed")
        self._page_copy_write_failures = counter("page_copy_write_failures")
        self.page_size = page_size
        self._full_backups: dict[int, dict[int, bytes]] = {}
        self._full_backup_lsns: dict[int, dict[int, int]] = {}
        self._full_backup_checkpoints: dict[int, int] = {}
        self._next_backup_id = 1
        self._retired_backup_ids: set[int] = set()
        self._page_copies: dict[int, tuple[bytes, int]] = {}
        self._next_copy_location = 1
        self._freed_locations: list[int] = []
        #: fault injection: the next N page-copy writes fail after the
        #: I/O was charged but before the copy becomes durable (a
        #: backup-media write error mid-copy)
        self._copy_write_failures = 0

    # ------------------------------------------------------------------
    # Full database backups
    # ------------------------------------------------------------------
    def store_full_backup(self, images: dict[int, bytes],
                          page_lsns: dict[int, int],
                          checkpoint_lsn: int | None = None) -> int:
        """Store a full backup; returns the backup id.

        Charged as one long sequential write of the whole image set —
        the paper's restore arithmetic in reverse.  ``checkpoint_lsn``
        is the CHECKPOINT_END the backup was taken under; media
        recovery seeds its loser set from that record's active-
        transaction table, since a loser whose records all precede the
        backup never appears in the tail scan.
        """
        total = sum(len(img) for img in images.values())
        self.clock.advance(self.profile.write_cost(total, sequential=True))
        backup_id = self._next_backup_id
        self._next_backup_id += 1
        self._full_backups[backup_id] = dict(images)
        self._full_backup_lsns[backup_id] = dict(page_lsns)
        if checkpoint_lsn is not None:
            self._full_backup_checkpoints[backup_id] = checkpoint_lsn
        self._full_backups_taken.inc()
        return backup_id

    def full_backup_checkpoint_lsn(self, backup_id: int) -> int | None:
        return self._full_backup_checkpoints.get(backup_id)

    def _require_full_backup(self, backup_id: int) -> dict[int, bytes]:
        """The image set of a retained full backup, or a crisp error.

        A ``BackupRef`` captured before :meth:`retire_full_backup` ran
        — e.g. by an in-flight repair — dangles afterwards; it must
        surface as :class:`BackupRetired`, never a raw ``KeyError``.
        """
        images = self._full_backups.get(backup_id)
        if images is None:
            if backup_id in self._retired_backup_ids:
                raise BackupRetired(
                    f"full backup {backup_id} was retired; the reference "
                    f"dangles")
            raise RecoveryError(f"no full backup {backup_id}")
        return images

    def fetch_from_full_backup(self, backup_id: int, page_id: int) -> tuple[bytes, int]:
        """One page from a full backup (random read on backup media)."""
        images = self._require_full_backup(backup_id)
        image = images.get(page_id)
        if image is None:
            raise RecoveryError(
                f"page {page_id} not in full backup {backup_id}")
        self.clock.advance(self.profile.read_cost(self.page_size))
        self._backup_page_fetches.inc()
        return image, self._full_backup_lsns[backup_id][page_id]

    def restore_full_backup(self, backup_id: int) -> dict[int, bytes]:
        """The whole backup (media recovery); one sequential read."""
        images = self._require_full_backup(backup_id)
        total = sum(len(img) for img in images.values())
        self.clock.advance(self.profile.read_cost(total, sequential=True))
        self._full_backups_restored.inc()
        return dict(images)

    def full_backup_lsns(self, backup_id: int) -> dict[int, int]:
        self._require_full_backup(backup_id)
        return dict(self._full_backup_lsns[backup_id])

    def full_backup_ids(self) -> list[int]:
        """Ids of every full backup still retained, oldest first."""
        return sorted(self._full_backups)

    def has_full_backup(self, backup_id: int) -> bool:
        return backup_id in self._full_backups

    def retire_full_backup(self, backup_id: int) -> None:
        """Drop a superseded full backup from the backup medium.

        Retirement is *gated* by the engine (see
        :meth:`repro.engine.checkpointer.Checkpointer.
        retire_full_backups`): a backup that a pending on-demand
        restore — or any page-recovery-index entry — still references
        must never be retired.
        """
        if backup_id not in self._full_backups:
            raise RecoveryError(f"no full backup {backup_id} to retire")
        del self._full_backups[backup_id]
        del self._full_backup_lsns[backup_id]
        self._full_backup_checkpoints.pop(backup_id, None)
        self._retired_backup_ids.add(backup_id)
        self._full_backups_retired.inc()

    # ------------------------------------------------------------------
    # Explicit page copies
    # ------------------------------------------------------------------
    def store_page_copy(self, image: bytes, page_lsn: int) -> int:
        """Write a page copy to a *fresh* location; returns the location.

        Never overwrites an existing copy; freeing the superseded copy
        is a separate step (:meth:`free_page_copy`) performed after
        this write completed.
        """
        location = self._next_copy_location
        self._next_copy_location += 1
        self.clock.advance(self.profile.write_cost(len(image)))
        if self._copy_write_failures > 0:
            # The write was attempted (and charged) but never became
            # durable; the fresh location is burned, the old copy —
            # which this write deliberately did not touch — survives.
            self._copy_write_failures -= 1
            self._page_copy_write_failures.inc()
            raise StorageError(
                f"backup medium: write of page copy to location "
                f"{location} failed")
        self._page_copies[location] = (bytes(image), page_lsn)
        self._page_copies_taken.inc()
        return location

    def inject_copy_write_failures(self, count: int = 1) -> None:
        """The next ``count`` page-copy writes fail mid-copy."""
        self._copy_write_failures += count

    def fetch_page_copy(self, location: int) -> tuple[bytes, int]:
        try:
            image, lsn = self._page_copies[location]
        except KeyError:
            if location in self._freed_locations:
                raise BackupRetired(
                    f"page copy at location {location} was freed; the "
                    f"reference dangles") from None
            raise RecoveryError(f"no page copy at location {location}") from None
        self.clock.advance(self.profile.read_cost(len(image)))
        self._backup_page_fetches.inc()
        return image, lsn

    def free_page_copy(self, location: int) -> None:
        """Release a superseded copy (the old-backup field of Figure 7
        exists exactly to make this possible)."""
        if location in self._page_copies:
            del self._page_copies[location]
            self._freed_locations.append(location)
            self._page_copies_freed.inc()

    def free_if_page_copy(self, ref: BackupRef | None) -> None:
        if ref is not None and ref.kind == BackupRefKind.PAGE_COPY:
            self.free_page_copy(ref.value)

    @property
    def live_page_copies(self) -> int:
        return len(self._page_copies)

    def copies_bytes(self) -> int:
        return sum(len(img) for img, _lsn in self._page_copies.values())


def fetch_backup_image(ref: BackupRef, page_id: int, page_size: int,
                       store: BackupStore, log_reader: LogReader) -> tuple[Page, int]:
    """Materialize the backup image a :class:`BackupRef` points to.

    Returns ``(page, backup_page_lsn)``; the chain walk replays log
    records *newer* than ``backup_page_lsn`` onto the page (Figure 9).
    """
    if ref.kind == BackupRefKind.PAGE_COPY:
        image, lsn = store.fetch_page_copy(ref.value)
        return Page(page_size, image), lsn
    if ref.kind == BackupRefKind.FULL_BACKUP:
        image, lsn = store.fetch_from_full_backup(ref.value, page_id)
        return Page(page_size, image), lsn
    if ref.kind == BackupRefKind.LOG_IMAGE:
        record = log_reader.read(ref.value)
        if record.kind != LogRecordKind.FULL_PAGE_IMAGE or record.image is None:
            raise RecoveryError(
                f"LSN {ref.value} is not a full page image record")
        image = decompress_image(record.image, page_size)
        page = Page(page_size, image)
        # The image is current as of the recorded PageLSN, or — for
        # images whose PageLSN could only be assigned after the record
        # itself was appended (checkpoint-written recovery-index pages)
        # — as of the image record's own LSN.
        as_of = record.page_lsn if record.page_lsn else record.lsn
        if page.page_lsn != as_of:
            page.page_lsn = as_of
        return page, as_of
    if ref.kind == BackupRefKind.FORMAT_RECORD:
        record = log_reader.read(ref.value)
        if record.kind != LogRecordKind.FORMAT_PAGE or record.op is None:
            raise RecoveryError(
                f"LSN {ref.value} is not a page formatting record")
        page = Page.format(page_size, page_id)
        record.op.apply_redo(page)
        page.page_lsn = record.lsn
        return page, record.lsn
    raise RecoveryError(f"page {page_id} has no usable backup ({ref.kind.name})")


def make_log_image_payload(page: Page) -> bytes:
    """Compressed image for a FULL_PAGE_IMAGE record."""
    return compress_image(page.data)
