"""Media recovery (Section 5.1.3), eager or on demand.

"Whereas system recovery scans the recovery log forward from the last
checkpoint and ensures 'redo' of all logged updates, media recovery
scans forward from the last backup of the failed media and ensures
updates for the failed media only.  Due to the effort of restoring a
backup copy, active transactions touching the failed media are
aborted."

This module is analysis + registration; the restore itself is the
registry shared with restart recovery:

1. **analysis** — one indexed sequential scan of the log tail since
   the backup collects each page's record list and the loser set;
2. **registration** — a replacement device is installed and every page
   of the failed device (backup pages plus pages formatted since) is
   registered with a :class:`repro.engine.pending_recovery.
   PendingRecovery` over the :class:`~repro.engine.pending_recovery.
   BackupImage` source, loser locks re-acquired;
3. **restore** — ``"eager"`` pulls the whole backup with one sequential
   read and drains everything before returning (the traditional
   offline restore, expressed as "drain before open"); ``"on_demand"``
   returns immediately with the database open: pages restore on first
   fix, cold pages by background drain, losers on lock conflict or
   drain.

The expense asymmetry this preserves is the paper's Section-6 point:
eager restore grows with device size, while on-demand restore's
time-to-first-transaction is the analysis scan plus the handful of
pages the first transaction touches
(``benchmarks/test_ext_instant_restore.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.config import check_recovery_mode
from repro.engine.pending_recovery import BackupImage, PendingRecovery
from repro.engine.system_recovery import (
    note_txn_record,
    register_indoubt,
    split_indoubt,
)
from repro.errors import RecoveryError
from repro.sim.clock import StopWatch
from repro.storage.device import StorageDevice
from repro.storage.faults import FaultInjector
from repro.wal.records import PAGE_UPDATE_KINDS, checkpoint_tables


@dataclass
class MediaRecoveryReport:
    """Cost breakdown of one media recovery."""

    mode: str = "eager"
    pages_restored: int = 0
    bytes_restored: int = 0
    records_replayed: int = 0
    transactions_rolled_back: int = 0
    analysis_seconds: float = 0.0
    restore_seconds: float = 0.0
    replay_seconds: float = 0.0
    loser_txn_ids: list[int] = field(default_factory=list)
    #: on-demand mode: work registered for lazy completion instead of
    #: being done before the database reopened
    pending_restore_pages: int = 0
    pending_undo_txns: int = 0

    @property
    def total_seconds(self) -> float:
        return self.analysis_seconds + self.restore_seconds + self.replay_seconds


def collect_replay_targets(db, backup_id: int, backup_lsn: int):  # noqa: ANN001
    """Media-recovery analysis: one scan of the tail since the backup.

    Returns ``(att, page_records)``: ``att`` maps each loser
    transaction — uncommitted at the failure, including any losers an
    interrupted on-demand restart still owed — to ``(last_lsn,
    is_system)``, and ``page_records`` holds the LSNs of each page's
    records in log order (the fallback replay source when a per-page
    chain does not connect).  The scan reads headers only.

    The loser set is *seeded* from the active-transaction table of the
    checkpoint the backup was taken under: a transaction whose records
    all precede the backup never appears in the tail scan, yet its
    uncommitted updates sit inside the backup images (the checkpoint
    flushed them) and must be rolled back.  Its commit/abort, had one
    happened, would be in the tail — nothing can finish between the
    backup's own checkpoint and the backup record — so the scan's
    pops keep the seed exact.
    """
    att: dict[int, tuple[int, bool]] = {}
    checkpoint_lsn = db.backup_store.full_backup_checkpoint_lsn(backup_id)
    if checkpoint_lsn is not None and db.log.has_record(checkpoint_lsn):
        checkpoint = checkpoint_tables(db.log.encoding_at(checkpoint_lsn))
        if checkpoint is not None:
            for txn_id, last_lsn, is_system in checkpoint.active_txns:
                att[txn_id] = (last_lsn, is_system)
    page_records: dict[int, list[int]] = {}
    for lsn, kind, commits, txn_id, page_id in (
            db.log_reader.scan_from(backup_lsn)):
        note_txn_record(att, lsn, kind, commits, txn_id)
        if kind in PAGE_UPDATE_KINDS and page_id >= 0:
            page_records.setdefault(page_id, []).append(lsn)
    return att, page_records


def run_media_recovery(db, backup_id: int,  # noqa: ANN001
                       mode: str | None = None) -> MediaRecoveryReport:
    """Replace the device and rebuild it from backup + log.

    ``mode`` overrides ``config.restore_mode`` for this one recovery:
    ``"eager"`` restores everything before returning; ``"on_demand"``
    leaves the work registered as ``db.pending_recovery`` and returns
    with the database already open (see :meth:`Database.drain_restore`,
    :meth:`Database.finish_restore`).
    """
    report = MediaRecoveryReport()
    cfg = db.config
    report.mode = check_recovery_mode("restore mode", mode or cfg.restore_mode)

    # Find the backup's position via the log's backup-record index —
    # an O(1) lookup, not a scan of the whole log.
    backup_lsn = db.log.backup_full_lsn(backup_id)
    if backup_lsn is None:
        raise RecoveryError(f"no log record for full backup {backup_id}")
    if not db.backup_store.has_full_backup(backup_id):
        raise RecoveryError(f"full backup {backup_id} is not retained")

    # Recovery itself may use engine services, and a restore may re-run
    # after a crash interrupted a previous on-demand restore.
    db._crashed = False
    # Pending instant-restart or interrupted-restore work is subsumed:
    # chain replay from the backup covers every deferred redo, and the
    # analysis scan below rediscovers every deferred loser.
    if db.pending_recovery is not None:
        db.pending_recovery.abandon()

    # ------------------------------------------------------------------
    # Analysis: the log tail since the backup, one indexed scan.
    # ------------------------------------------------------------------
    with StopWatch(db.clock) as watch:
        att, page_records = collect_replay_targets(db, backup_id, backup_lsn)
        backup_page_lsns = db.backup_store.full_backup_lsns(backup_id)
    report.analysis_seconds = watch.elapsed

    # Prepared (2PC) transactions are in doubt, not losers: they keep
    # their locks and await the coordinator's decision — the same
    # split restart analysis applies (the two must never disagree).
    att, indoubt = split_indoubt(db, att)
    register_indoubt(db, indoubt)

    # ------------------------------------------------------------------
    # Registration: replacement device + pending recovery.
    # ------------------------------------------------------------------
    replacement = StorageDevice(
        f"{db.device.name}'", cfg.page_size, cfg.capacity_pages,
        db.clock, cfg.device_profile, db.stats,
        FaultInjector(seed=cfg.seed + 1),
        proof_read=cfg.proof_read_writes)
    db.durable.device = replacement
    db._open_device()

    # The backup this restore reads from stays pinned (across a crash
    # too: the re-run needs it) until the completion watermark.
    db.durable.restore_backup_id = backup_id
    source = BackupImage(db, backup_lsn, set(backup_page_lsns))
    recovery = PendingRecovery(
        db, source,
        {page_id: page_records.get(page_id, [])
         for page_id in source.backup_pages | set(page_records)}, att)
    recovery.install()
    report.loser_txn_ids = sorted(att)
    db.counters.media_recoveries.inc()
    if report.mode == "on_demand":
        # Open for traffic: every page is reachable (restored on fix).
        report.pending_restore_pages = recovery.pending_page_count
        report.pending_undo_txns = recovery.pending_loser_count
        db._media_failed = False
        db.counters.instant_restores.inc()
        db.log.force()
        return report

    # Eager restore: one sequential backup read, then drain before
    # open.  The database stays closed (_media_failed) until the drain
    # succeeds; a restore that dies mid-drain must keep refusing
    # traffic on the half-restored device.
    with StopWatch(db.clock) as watch:
        source.prefetch_images()
    report.restore_seconds = watch.elapsed
    with StopWatch(db.clock) as watch:
        recovery.drain_all()
    report.replay_seconds = watch.elapsed
    db._media_failed = False
    report.pages_restored = recovery.pages_resolved
    report.bytes_restored = recovery.pages_resolved * cfg.page_size
    report.records_replayed = recovery.records_applied
    report.transactions_rolled_back = len(recovery.undone_losers)
    return report
