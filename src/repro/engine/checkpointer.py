"""Checkpointing, PRI persistence, page backups, and log retention.

This component owns everything that bounds recovery work:

* **checkpoints** (Section 5.2.6): write back the frames dirty since
  before the previous checkpoint (the penultimate-checkpoint rule of
  ARIES's fuzzy checkpoint), persist the page recovery index into its
  reserved page region, and write the CHECKPOINT_END master record,
  whose dirty-page table lists the frames left dirty — restart redoes
  from the oldest of them, so at most two checkpoint intervals;
* **page backups** (Section 5.2.1): explicit page copies, in-log
  full-page images, and full database backups, plus the write-back
  hooks that apply the Section-6 freshness policy and log PRI updates
  (Figure 11);
* **log retention and truncation**: the oldest LSN any retained
  structure may still need, and the copy-forward step that refreshes
  backups pinning the log head.
"""

from __future__ import annotations

from repro.core.backup import BackupPolicy, make_log_image_payload
from repro.errors import ConfigError, StorageError
from repro.page.page import Page
from repro.sync import Mutex
from repro.wal.records import (
    PRI_UPDATE_MAX,
    BackupRef,
    BackupRefKind,
    CheckpointData,
    backup_full,
    backup_page,
    checkpoint_begin,
    checkpoint_tables,
    full_page_image,
    pri_update,
)


class Checkpointer:
    """Checkpoint + PRI persistence + backup/retention machinery."""

    def __init__(self, db) -> None:  # noqa: ANN001 - Database facade
        self.db = db
        counter = db.stats.counter
        self._checkpoints = counter("checkpoints")
        self._pri_persists = counter("pri_persists")
        self._pri_update_records = counter("pri_update_records")
        self._policy_page_copies = counter("policy_page_copies")
        self._page_copy_policy_failures = counter("page_copy_policy_failures")
        self._copy_forward_backups = counter("copy_forward_backups")
        self._backup_images_repaired = counter("backup_images_repaired")
        # Two threads must never interleave checkpoints (the PRI
        # region would interleave partition snapshots); sessions
        # already serialize via the engine latch, this guards direct
        # concurrent Database.checkpoint() calls too.
        self._mutex = Mutex()

    # ------------------------------------------------------------------
    # Checkpoints (Section 5.2.6)
    # ------------------------------------------------------------------
    def checkpoint(self) -> int:
        """Write a checkpoint; returns the CHECKPOINT_END LSN."""
        with self._mutex:
            return self._checkpoint_locked()

    def _checkpoint_locked(self) -> int:
        db = self.db
        if db.pending_recovery is not None:
            # A checkpoint completes any pending recovery first: it
            # declares the device consistent up to the master record —
            # its dirty-page table must not silently drop pages whose
            # redo is pending, and a half-restored replacement device
            # is not consistent at all — and the new master must not
            # strand a pending loser's rollback behind it.
            db.pending_recovery.drain_all()
        db.log.append(checkpoint_begin())
        att = [(txn.txn_id, txn.last_lsn, txn.is_system)
               for txn in db.tm.unfinished()]
        # Recovered in-doubt (prepared) branches are not in tm.active
        # but must survive into the checkpoint's ATT: a crash after
        # this checkpoint starts analysis here, and the chain-head
        # PREPARE test re-classifies them as in doubt.
        att.extend((entry.txn_id, entry.last_lsn, False)
                   for entry in db.indoubt.values())
        # The penultimate-checkpoint rule: only the frames dirty since
        # before the master — the previous checkpoint — are written, in
        # one write-back run under the pool mutex (every dirty frame
        # when there is no master yet).  The rest stay dirty and enter
        # this checkpoint's dirty-page table, so restart redoes from at
        # most the previous checkpoint: two checkpoint intervals.
        db.pool.flush_all(db.log.master_checkpoint_lsn or None)
        pri_images: dict[int, int] = {}
        if db.config.spf_enabled:
            pri_images = self.persist_pri()
        checkpoint = CheckpointData(db.pool.dirty_page_table(), att,
                                    pri_images)
        lsn = db.log.log_checkpoint_end(checkpoint)
        self._checkpoints.inc()
        return lsn

    def persist_pri(self) -> dict[int, int]:
        """Serialize the PRI into its reserved page region.

        Only the region pages a snapshot occupies are written; each
        gets a fresh full-page-image log record that acts as its
        backup.  Partition p's pages are covered by partition 1-p, so
        no page holds its own recovery information (Section 5.2.2).
        Both partitions are serialized *first* so that neither snapshot
        depends on entries created while writing the other.

        Returns ``{page_id: image record LSN}`` for the checkpoint
        record, which is how restart finds the images.
        """
        db = self.db
        cfg = db.config
        per_partition = cfg.pri_region_pages_per_partition
        region = db.pri.region_pages(cfg.pri_region_start, cfg.pri_region_end,
                                     per_partition)
        while True:
            snapshots = db.pri.snapshot_chunks(cfg.page_size)
            # A page that held a chunk of a larger earlier snapshot
            # would keep its in-log image as backup and pin log
            # retention there for ever.  The entries live in the index
            # being serialized, so dropping any means serializing again.
            if not self._forget_vacated_pri_pages(region, snapshots):
                break
        # Both snapshots are sized before any region page is written: a
        # refused checkpoint leaves the region as the master lists it.
        for p, chunks in enumerate(snapshots):
            if len(chunks) > per_partition:
                raise ConfigError(
                    f"PRI partition {p} needs {len(chunks)} pages, "
                    f"region holds {per_partition}")
        image_lsns: dict[int, int] = {}
        for page_ids, chunks in zip(region, snapshots):
            for seq, chunk in enumerate(chunks):
                page_id = page_ids[seq]
                page = db.pri.region_page(cfg.page_size, page_id, chunk, seq,
                                          len(chunks))
                lsn = db.log.append(full_page_image(
                    page_id, 0, make_log_image_payload(page)))
                page.page_lsn = lsn
                page.seal()
                db.device.write(page_id, page.data)
                image_lsns[page_id] = lsn
                # Covered by the *other* partition (in memory; the next
                # checkpoint persists these entries).
                db.pri.set_backup(page_id, BackupRef.log_image(lsn), lsn,
                                  db.clock.now)
                db.pri.record_write(page_id, lsn)
        self._pri_persists.inc()
        return image_lsns

    def _forget_vacated_pri_pages(self, region: tuple[list[int], ...],
                                  snapshots: list[list[bytes]]) -> bool:
        """Drop the index entries of region pages beyond each
        snapshot's last chunk; returns whether any were dropped.
        Snapshots occupy a prefix of their pages, so the walk stops at
        the first page that holds no in-log image."""
        pri = self.db.pri
        dropped = False
        for page_ids, chunks in zip(region, snapshots):
            for page_id in page_ids[len(chunks):]:
                if not (pri.covers(page_id)
                        and pri.lookup(page_id).backup_ref.kind
                        == BackupRefKind.LOG_IMAGE):
                    break
                pri.forget(page_id)
                dropped = True
        return dropped

    def vacant_pri_pages(self) -> set[int]:
        """Region pages no snapshot occupies, i.e. all but those the
        master checkpoint lists — the rule restart loads the index by.
        Whatever the device holds there is not part of the database:
        nothing reads it and no backup need hold an image of it, so
        whole-device passes (scrubbing, full backups) leave it alone.
        The index is no witness here: a range entry (full backup,
        restore) spans such pages too."""
        db = self.db
        vacant = set(range(db.config.pri_region_start,
                           db.config.pri_region_end))
        master_lsn = db.log.master_checkpoint_lsn
        if master_lsn:
            checkpoint = checkpoint_tables(db.log.encoding_at(master_lsn))
            if checkpoint is not None:
                vacant.difference_update(checkpoint.pri_images)
        return vacant

    # ------------------------------------------------------------------
    # Write-back hooks (Figure 11 and the Section-6 backup policy)
    # ------------------------------------------------------------------
    def on_before_write(self, page: Page) -> None:
        """Take a fresh page copy if the freshness policy says so."""
        db = self.db
        if not db.config.spf_enabled:
            return
        policy: BackupPolicy = db.config.backup_policy
        page_id = page.page_id
        if not db.pri.covers(page_id):
            return
        entry = db.pri.lookup(page_id)
        age = db.clock.now - entry.backup_time
        if not policy.due(page.update_count, age):
            return
        try:
            self.take_page_copy(page)
        except StorageError:
            # A backup-media write failure must not fail the data-page
            # write it rides on: the old copy is still in place (a new
            # copy never overwrites it), so recoverability is unchanged
            # and the policy simply retries at the next write-back.
            self._page_copy_policy_failures.inc()

    def on_run_cleaned(self, writes: list[tuple[int, int]]) -> None:
        """Figure 11: after a run's writes, the index learns each page's
        new on-device PageLSN and one PRI update names them all; no
        force."""
        db = self.db
        if not db.config.log_completed_writes:
            return
        if db.config.spf_enabled:
            for page_id, page_lsn in writes:
                db.pri.record_write(page_id, page_lsn)
        for start in range(0, len(writes), PRI_UPDATE_MAX):
            db.log.append(pri_update(writes[start:start + PRI_UPDATE_MAX]))
            self._pri_update_records.inc()

    # ------------------------------------------------------------------
    # Page backups (Section 5.2.1)
    # ------------------------------------------------------------------
    def take_page_copy(self, page: Page) -> int:
        """Explicit per-page backup (Section 5.2.1, second source).

        The new copy goes to a fresh location; the page recovery index
        then yields the old location, which is freed only afterwards —
        never overwrite the only backup.
        """
        db = self.db
        image = page.copy()
        image.reset_update_count()
        image.seal()
        location = db.backup_store.store_page_copy(bytes(image.data),
                                                   page.page_lsn)
        db.log.append(backup_page(page.page_id, page.page_lsn,
                                  BackupRef.page_copy(location)))
        old_ref = db.pri.set_backup(page.page_id,
                                    BackupRef.page_copy(location),
                                    page.page_lsn, db.clock.now)
        db.backup_store.free_if_page_copy(old_ref)
        page.reset_update_count()
        self._policy_page_copies.inc()
        return location

    def take_log_image(self, page_id: int) -> int:
        """In-log page backup (Section 5.2.1, fourth source)."""
        db = self.db
        page = db.pool.fix(page_id)
        try:
            image = page.copy()
            image.reset_update_count()
            image.seal()
            lsn = db.log.append(full_page_image(
                page_id, page.page_lsn, make_log_image_payload(image)))
            if db.config.spf_enabled:
                old_ref = db.pri.set_backup(
                    page_id, BackupRef.log_image(lsn), page.page_lsn,
                    db.clock.now)
                db.backup_store.free_if_page_copy(old_ref)
            page.reset_update_count()
            return lsn
        finally:
            db.pool.unfix(page_id)

    def take_full_backup(self) -> int:
        """Full database backup (checkpointed, verified, then copied).

        Every image is verified before it enters the backup: the fetch
        path's own verdict (``RecoveryManager.inspect``: every in-page
        test plus the PageLSN cross-check against the page recovery
        index).  A page that fails — e.g. a write the device silently
        lost, leaving a stale-but-plausible image — is read through
        the buffer pool's detect-and-repair fix path instead, so the
        backup never archives damage.  (Found by the chaos harness:
        lost write, then backup, then crash — replay from the
        poisoned backup image hit a chain mismatch.)
        """
        db = self.db
        # Media recovery replays the log from the backup's own record,
        # so the device must hold every update before it: every dirty
        # frame is written back, not only those the checkpoint writes.
        db.pool.flush_all()
        checkpoint_lsn = self.checkpoint()
        images: dict[int, bytes] = {}
        page_lsns: dict[int, int] = {}
        next_free = db.allocated_pages()
        vacant = self.vacant_pri_pages()
        for page_id in range(next_free):
            raw = db.device.raw_image(page_id)
            if raw is None or page_id in vacant:
                continue
            image = self._verified_backup_image(page_id, raw)
            images[page_id] = image
            page_lsns[page_id] = Page(db.config.page_size, image).page_lsn
        # Sequential read of the copied range.
        db.clock.advance(db.config.device_profile.read_cost(
            len(images) * db.config.page_size, sequential=True))
        backup_id = db.backup_store.store_full_backup(images, page_lsns,
                                                      checkpoint_lsn)
        backup_lsn = db.log.append(backup_full(backup_id))
        db.log.force()
        if db.config.spf_enabled:
            db.pri.set_range_backup(0, next_free,
                                    BackupRef.full_backup(backup_id),
                                    backup_lsn, db.clock.now)
        return backup_id

    def _verified_backup_image(self, page_id: int, raw: bytes) -> bytes:
        """``raw`` if Figure 8 trusts it; else the repaired page, which
        is also written back to the device."""
        db = self.db
        image = db.trusted_image(page_id, raw, self._backup_images_repaired)
        if image is raw:
            return raw
        # Resync the device: the range-backup reset below (set_range_
        # backup clears per-page LSN expectations) assumes the device
        # holds exactly what the backup archived, so a repaired image
        # must also land on the device — remapping away from a sector
        # that refuses to take it.
        for _attempt in range(4):
            db.device.write(page_id, image)
            if db.device.raw_image(page_id) == image:
                return image
            db.device.remap(page_id, "backup verification resync")
        raise StorageError(
            f"page {page_id} unwritable while verifying backup image")

    # ------------------------------------------------------------------
    # Backup retirement
    # ------------------------------------------------------------------
    def retire_full_backups(self) -> list[int]:
        """Retire full backups superseded by a newer one.

        Gated twice: the backup a pending on-demand restore is reading
        from must survive until the restore's completion watermark is
        recorded, and a backup any page-recovery-index entry still
        references must survive for single-page recovery.  Returns the
        retired backup ids.
        """
        db = self.db
        ids = db.backup_store.full_backup_ids()
        if len(ids) <= 1:
            return []
        newest = ids[-1]
        in_use: set[int] = {newest}
        if db.durable.restore_backup_id is not None:
            # The restore completion watermark gates retirement.
            in_use.add(db.durable.restore_backup_id)
        if db.config.spf_enabled:
            in_use |= db.pri.full_backups_in_use()
        retired = [bid for bid in ids if bid not in in_use]
        for backup_id in retired:
            db.backup_store.retire_full_backup(backup_id)
        return retired

    # ------------------------------------------------------------------
    # Log retention
    # ------------------------------------------------------------------
    def log_retention_bound(self) -> int:
        """Oldest LSN any retained structure may still need.

        Six constraints:

        * single-page recovery walks each page's chain back to its most
          recent backup — so the bound is the minimum backup LSN over
          all covered pages (the page recovery index knows it; this is
          a quiet benefit of per-page backups: fresher backups shorten
          mandatory log retention);
        * restart needs the log from the master checkpoint;
        * redo needs each dirty frame's records from its ``rec_lsn``,
          which may precede the master: a checkpoint leaves the frames
          dirtied since the previous one dirty (the
          penultimate-checkpoint rule);
        * rollback needs every active transaction's first record;
        * an unfinished recovery needs what its pending pages replay
          from — each page's first redo record (restart) or the whole
          tail since the backup (restore) — and every pending loser's
          first record (the completion watermark, see
          ``PendingRecovery.retention_bound``);
        * media recovery restores from the newest retained full backup
          and scans the tail from its BACKUP_FULL record, so that
          record must stay reachable — truncating past it would make
          the *next* device loss unrecoverable (found by the chaos
          harness: checkpoint + truncate + device loss).
        """
        db = self.db
        bound = self._redo_floor(db.log.master_checkpoint_lsn
                                 or db.log.end_lsn)
        for backup_id in reversed(db.backup_store.full_backup_ids()):
            backup_lsn = db.log.backup_full_lsn(backup_id)
            if backup_lsn is not None:
                bound = min(bound, backup_lsn)
                break
        for txn in db.tm.active.values():
            if txn.first_lsn:
                bound = min(bound, txn.first_lsn)
        for entry in db.indoubt.values():
            # An undecided 2PC branch may still be rolled back, and its
            # chain-head PREPARE record is what re-classifies it at the
            # next analysis — pin back to its first record.
            if entry.first_lsn:
                bound = min(bound, entry.first_lsn)
        if db.pending_recovery is not None:
            # The completion watermark: pending pages and losers pin
            # the log until they resolve (the truncation gate).
            pending = db.pending_recovery.retention_bound()
            if pending is not None:
                bound = min(bound, pending)
        if db.config.spf_enabled:
            floor = db.pri.log_floor()
            if floor is not None:
                bound = min(bound, floor)
        standby, link = db.standby, db.standby_link
        if standby is not None and standby.running and link is not None:
            # A live standby pins the log at its ship watermark: records
            # it has not received yet can only ever come from the
            # primary's log.  Truncating past a lagging standby would
            # sever the link permanently (the shipper breaks rather than
            # ship a gap).  A dead standby does not pin — reattaching
            # re-seeds from scratch.
            bound = min(bound, link.shipped_lsn)
        return bound

    def _redo_floor(self, lsn: int) -> int:
        """``lsn``, or the oldest ``rec_lsn`` of a dirty frame if that
        is older: restart redoes such a frame's records from there."""
        return min([lsn, *self.db.pool.dirty_page_table().values()])

    def truncate_log(self, copy_forward: bool = True,
                     copy_budget: int = 64) -> int:
        """Reclaim the log head up to :meth:`log_retention_bound`.

        With ``copy_forward``, pages whose *old* backups pin the bound
        below what restart needs — the master checkpoint, or a dirty
        frame's older ``rec_lsn`` — first get fresh page copies (up to
        ``copy_budget`` of them) — the copy-forward step familiar from
        log-structured systems, here driven by the page recovery
        index's backup-page field.  The copies' BACKUP_PAGE records are
        forced before anything is reclaimed: the retention bound is
        computed from the in-memory index, and a crash that lost those
        records would rebuild an index whose backup references point
        into the truncated head.
        """
        db = self.db
        target = self._redo_floor(db.log.master_checkpoint_lsn
                                  or db.log.durable_lsn)
        if copy_forward and db.config.spf_enabled:
            if self._copy_forward_pinning_pages(target, copy_budget):
                db.log.force()
        return db.log.truncate(self.log_retention_bound())

    def _copy_forward_pinning_pages(self, target: int, budget: int) -> int:
        """Returns the number of page copies taken."""
        db = self.db
        pri_region = range(db.config.pri_region_start,
                           db.config.pri_region_end)
        copied = [pid for pid in db.pri.pages_backed_up_before(target, budget)
                  if pid not in pri_region][:budget]
        # One request on the backup medium: the copies go to consecutive
        # fresh locations, one extent.
        with db.backup_store.request():
            for page_id in copied:
                page = db.pool.fix(page_id)
                try:
                    self.take_page_copy(page)
                finally:
                    db.pool.unfix(page_id)
                self._copy_forward_backups.inc()
        return len(copied)
