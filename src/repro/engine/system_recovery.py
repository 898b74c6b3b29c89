"""ARIES-style restart recovery with the paper's PRI integration:
analysis, then registration of the redo and undo work.

Three passes over the log (Section 5.1.2), plus the Figure-12 actions:

* **Log analysis** (reads only the log): rebuilds the dirty page table
  ("recovery requirements") and the active transaction table from the
  last checkpoint.  An *update* record adds its page; a *PRI-update*
  record — which doubles as a completed-write record — removes it, so
  pages whose writes completed before the crash need no redo read at
  all (the Figure-4 optimization).  Backup and format records replay
  into the in-memory page recovery index.
* **Redo** (physical) and **undo** (logical) are not written here: the
  surviving dirty-page table and the loser set are registered with a
  :class:`repro.engine.pending_recovery.PendingRecovery` over the
  :class:`~repro.engine.pending_recovery.DeviceImage` source.  Redo
  reads only the remaining required pages, applies missing updates
  decided by the PageLSN and verifies the per-page chain ordering as it
  goes (the defensive check of Section 5.1.4); a page that turns out to
  be *already up to date* — written, but its PRI-update record lost in
  the crash — gets the missing PRI-update record generated right away
  (Figure 12, bottom row).  Undo rolls back loser transactions through
  the indexes, writing CLRs.  ``"eager"`` restart drains all of it
  before the database opens; ``"on_demand"`` opens first.

Before any of that, the persisted page recovery index is loaded from
its reserved page region; a damaged PRI page is itself repaired by
single-page recovery from its in-log full-page image — the structure is
covered by its own mechanism (Section 5.2).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from repro.engine.config import check_recovery_mode
from repro.engine.pending_recovery import DeviceImage, PendingRecovery
from repro.errors import SinglePageFailure, StorageError
from repro.page.page import Page
from repro.page.slotted import inspect_page
from repro.sim.clock import StopWatch
from repro.storage.device import DeviceReadError
from repro.wal.lsn import LOG_START, NULL_LSN
from repro.wal.records import (PAGE_UPDATE_KINDS, BackupRef, LogRecordKind,
                               checkpoint_tables, decompress_image,
                               full_backup_id, page_backup, page_image,
                               prepare_gtid, pri_writes, read_header)


@dataclass
class RestartReport:
    """What restart recovery did and what it cost (simulated time)."""

    mode: str = "eager"
    analysis_records: int = 0
    dirty_pages_at_analysis_end: int = 0
    pages_trimmed_by_write_logging: int = 0
    redo_pages_read: int = 0
    redo_records_applied: int = 0
    redo_pages_already_current: int = 0
    pri_repair_records: int = 0
    pri_pages_repaired: int = 0
    undo_transactions: int = 0
    analysis_seconds: float = 0.0
    redo_seconds: float = 0.0
    undo_seconds: float = 0.0
    loser_txn_ids: list[int] = field(default_factory=list)
    #: prepared (2PC in-doubt) transactions found by analysis: neither
    #: redone away nor rolled back — they hold their locks until the
    #: coordinator's decision arrives via ``Database.resolve_indoubt``
    indoubt_gtids: list[int] = field(default_factory=list)
    #: on-demand mode: work registered for lazy completion instead of
    #: being done before the database opened
    pending_redo_pages: int = 0
    pending_undo_txns: int = 0

    @property
    def total_seconds(self) -> float:
        return self.analysis_seconds + self.redo_seconds + self.undo_seconds


def run_restart(db, mode: str | None = None) -> RestartReport:  # noqa: ANN001
    """Run restart recovery against a crashed :class:`Database`.

    ``mode`` overrides ``config.restart_mode`` for this one restart.
    Either mode runs analysis and registers the surviving dirty-page
    table and loser set as ``db.pending_recovery``; on-demand mode then
    returns with the database already open for traffic, eager mode
    drains everything first.
    """
    mode = check_recovery_mode("restart mode", mode or db.config.restart_mode)
    if db._media_failed:
        # A crash interrupted an on-demand restore (or hit an already
        # media-failed node): the device is not a trustworthy redo
        # substrate, and media recovery from the retained backup
        # subsumes restart anyway — it replays the whole durable tail
        # and undoes every unfinished transaction.
        from repro.errors import MediaFailure

        raise MediaFailure(
            db.device.name,
            "device not restored; run recover_media() first (a restore "
            "interrupted by a crash re-runs from the same backup)")

    report = RestartReport(mode=mode)
    cfg = db.config
    db._crashed = False  # recovery itself may use engine services

    if cfg.spf_enabled:
        _load_pri(db, report)

    with StopWatch(db.clock) as watch:
        dpt, att, page_records, max_txn = _analysis(db, report)
    report.analysis_seconds = watch.elapsed
    report.dirty_pages_at_analysis_end = len(dpt)
    db.tm.restore_txn_id_floor(max_txn)

    # Prepared (2PC) transactions leave the loser set: they re-acquire
    # their locks and wait in doubt for the coordinator's decision.
    att, indoubt = split_indoubt(db, att)
    report.indoubt_gtids = register_indoubt(db, indoubt)

    # Pages without collected records need no redo read at all and are
    # not registered.
    source = DeviceImage(db)
    recovery = PendingRecovery(
        db, source,
        {page_id: records for page_id, records in page_records.items()
         if records}, att)
    recovery.install()
    db.counters.restarts.inc()
    if report.mode == "on_demand":
        # Open for traffic: pages redo on first fix, losers undo on
        # lock conflict, the background drain resolves the rest.
        report.pending_redo_pages = recovery.pending_page_count
        report.pending_undo_txns = recovery.pending_loser_count
        report.loser_txn_ids = sorted(att)
        db.counters.instant_restarts.inc()
    else:
        recovery.drain_all()
        report.redo_pages_read = recovery.pages_resolved
        report.redo_records_applied = recovery.records_applied
        report.redo_pages_already_current = recovery.pages_already_current
        report.pri_repair_records = source.pri_repairs
        report.undo_transactions = len(recovery.undone_losers)
        report.loser_txn_ids = list(recovery.undone_losers)
        report.redo_seconds = recovery.page_seconds
        report.undo_seconds = recovery.loser_seconds
    db.log.force()
    return report


# ----------------------------------------------------------------------
# Pass 1: log analysis
# ----------------------------------------------------------------------
@dataclass
class InDoubtTxn:
    """A prepared transaction awaiting its 2PC coordinator decision.

    Recovered by restart (or media-recovery) analysis: the transaction
    voted yes — its PREPARE record is durable — so presumed abort does
    not apply.  It holds its key locks (re-acquired from its chain)
    until :meth:`repro.engine.database.Database.resolve_indoubt`
    delivers the decision.
    """

    txn_id: int
    gtid: int
    last_lsn: int
    first_lsn: int
    keys: set[bytes] = field(default_factory=set)


def split_indoubt(db, att):  # noqa: ANN001
    """Partition an analysis ATT into losers and in-doubt transactions.

    A transaction whose chain head is a PREPARE record is *in doubt*:
    it must not be rolled back by presumed-abort undo.  The chain-head
    test works whether analysis saw the PREPARE itself or only a
    checkpoint's ATT entry pointing at it — a prepared transaction
    never logs past its PREPARE except during a decided abort, whose
    CLRs (and terminal ABORT) reclassify it correctly.

    Returns ``(losers_att, {txn_id: (gtid, last_lsn)})``.
    """
    losers: dict[int, tuple[int, bool]] = {}
    indoubt: dict[int, tuple[int, int]] = {}
    for txn_id, (last_lsn, is_system) in att.items():
        encoding = (db.log.encoding_at(last_lsn)
                    if last_lsn != NULL_LSN and db.log.has_record(last_lsn)
                    else None)
        if (encoding is not None
                and read_header(encoding)[0] == LogRecordKind.PREPARE):
            indoubt[txn_id] = (prepare_gtid(encoding), last_lsn)
        else:
            losers[txn_id] = (last_lsn, is_system)
    return losers, indoubt


def register_indoubt(db, indoubt: dict[int, tuple[int, int]]) -> list[int]:  # noqa: ANN001
    """Re-install in-doubt transactions after a recovery's analysis.

    Each gets its key locks back (from its per-transaction chain, the
    same walk instant restart uses for losers) and an entry in
    ``db.indoubt`` keyed by global transaction id; new transactions
    touching those keys block until the decision resolves them.
    """
    gtids: list[int] = []
    for txn_id, (gtid, last_lsn) in indoubt.items():
        keys, first_lsn = db.tm.chain_summary(last_lsn)
        for key in keys:
            db.locks.acquire(txn_id, key)
        db.indoubt[gtid] = InDoubtTxn(txn_id, gtid, last_lsn, first_lsn, keys)
        gtids.append(gtid)
    if gtids:
        db.counters.indoubt_txns_recovered.inc(len(gtids))
    return sorted(gtids)


def note_txn_record(att: dict[int, tuple[int, bool]], lsn: int, kind: int,
                    commits: bool, txn_id: int) -> None:
    """Apply one record's effect to an active-transaction table
    (txn_id -> (last_lsn, is_system)), from its header: the record at
    ``lsn`` of ``kind``, which ``commits`` its transaction ``txn_id``
    (:func:`repro.wal.records.read_header`) or not.

    The single definition of loser tracking, shared by restart
    analysis and media-recovery analysis — the two recoveries must
    never disagree on what counts as an unfinished transaction.
    """
    if not txn_id:
        return
    if commits or kind == LogRecordKind.ABORT:
        # Committed (by its last record's bit or a commit record) or
        # rolled back: no longer a loser.
        att.pop(txn_id, None)
    else:
        prior = att.get(txn_id)
        att[txn_id] = (lsn, prior[1] if prior else False)


def _analysis(db, report: RestartReport):  # noqa: ANN001
    """One scan of headers from the master checkpoint, a body read in
    place only where analysis reads it (checkpoint, PRI and backup
    records): the DPT, the ATT, the LSNs to redo per page and the top
    txn id."""
    cfg = db.config
    start_lsn = db.log.master_checkpoint_lsn or LOG_START
    dpt: dict[int, int] = {}
    last_update: dict[int, int] = {}
    att: dict[int, tuple[int, bool]] = {}
    page_records: dict[int, list[int]] = {}
    max_txn = 0
    pri_region = range(cfg.pri_region_start, cfg.pri_region_end)

    for lsn, kind, commits, txn_id, page_id in (
            db.log_reader.scan_from(start_lsn)):
        report.analysis_records += 1
        if kind == LogRecordKind.CHECKPOINT_END:
            checkpoint = checkpoint_tables(db.log.encoding_at(lsn))
            for page_id, rec_lsn in checkpoint.dirty_pages.items():
                dpt.setdefault(page_id, rec_lsn)
            for txn_id, last_lsn, is_system in checkpoint.active_txns:
                att[txn_id] = (last_lsn, is_system)
                max_txn = max(max_txn, txn_id)
            continue
        if txn_id:
            max_txn = max(max_txn, txn_id)
        note_txn_record(att, lsn, kind, commits, txn_id)
        if kind in PAGE_UPDATE_KINDS and page_id >= 0:
            if (kind == LogRecordKind.FULL_PAGE_IMAGE
                    and page_id in pri_region):
                # PRI region pages were handled in the load phase.
                continue
            dpt.setdefault(page_id, lsn)
            last_update[page_id] = lsn
            page_records.setdefault(page_id, []).append(lsn)
            if kind == LogRecordKind.FORMAT_PAGE and cfg.spf_enabled:
                db.pri.set_backup(page_id, BackupRef.format_record(lsn),
                                  lsn, db.clock.now)
        elif kind == LogRecordKind.PRI_UPDATE:
            # Completed writes: everything logged on each page up to its
            # PageLSN is on disk; a page not updated since leaves the
            # recovery requirements (Figure 12, analysis row 2 / the
            # Figure-4 optimization).
            for page_id, page_lsn in pri_writes(db.log.encoding_at(lsn)):
                if (last_update.get(page_id, NULL_LSN) <= page_lsn
                        and page_id in dpt):
                    dpt.pop(page_id)
                    page_records.pop(page_id, None)
                    report.pages_trimmed_by_write_logging += 1
                if cfg.spf_enabled:
                    db.pri.record_write(page_id, page_lsn)
        elif kind == LogRecordKind.BACKUP_PAGE and page_id >= 0:
            page_lsn, ref = page_backup(db.log.encoding_at(lsn))
            if cfg.spf_enabled:
                db.pri.set_backup(page_id, ref, page_lsn, db.clock.now)
        elif kind == LogRecordKind.BACKUP_FULL and cfg.spf_enabled:
            backup_id = full_backup_id(db.log.encoding_at(lsn))
            # The guard covers two cases: a retired backup (its record
            # outlives the media) and a promoted standby (its adopted
            # log holds the old primary's BACKUP_FULL records, but its
            # backup store starts empty).
            lsns = (db.backup_store.full_backup_lsns(backup_id)
                    if db.backup_store.has_full_backup(backup_id) else None)
            if lsns:
                db.pri.set_range_backup(0, max(lsns) + 1,
                                        BackupRef.full_backup(backup_id),
                                        lsn, db.clock.now)

    # Records before the checkpoint for pages whose rec_lsn precedes it.
    min_rec = min(dpt.values(), default=None)
    if min_rec is not None and min_rec < start_lsn:
        for lsn, kind, _commits, _txn_id, page_id in (
                db.log_reader.scan_from(min_rec)):
            if lsn >= start_lsn:
                break
            if (kind in PAGE_UPDATE_KINDS and page_id in dpt
                    and lsn >= dpt[page_id]):
                lsns = page_records.setdefault(page_id, [])
                lsns.insert(bisect.bisect_left(lsns, lsn), lsn)
    return dpt, att, page_records, max_txn


# ----------------------------------------------------------------------
# Phase 0: load the persisted page recovery index
# ----------------------------------------------------------------------
def _load_pri(db, report: RestartReport) -> None:  # noqa: ANN001
    """Rebuild the in-memory PRI from its page region.

    Every checkpoint rewrites the region pages its snapshots occupy,
    logging a full-page image per page *before* the CHECKPOINT_END
    record that lists them — so the log tail beginning at the master
    checkpoint always contains a backup for each page read here.  A
    region page that fails verification is rebuilt from that image:
    single-page recovery applied to the recovery index itself.
    """
    start_lsn = db.log.master_checkpoint_lsn
    if not start_lsn:
        return  # no checkpoint yet; analysis rebuilds from scratch
    checkpoint = checkpoint_tables(db.log.encoding_at(start_lsn))
    if checkpoint is None:
        return
    # page id -> (LSN, compressed image) of its in-log image
    fpi_by_page: dict[int, tuple[int, bytes]] = {}
    for page_id, lsn in checkpoint.pri_images.items():
        if db.log.has_record(lsn):
            encoding = db.log.encoding_at(lsn)
            fpi_by_page[page_id] = lsn, (
                page_image(encoding)[1] if read_header(encoding)[0]
                == LogRecordKind.FULL_PAGE_IMAGE else b"")
    if not fpi_by_page:
        return

    cfg = db.config
    region = db.pri.region_pages(cfg.pri_region_start, cfg.pri_region_end,
                                 cfg.pri_region_pages_per_partition)
    for p, page_ids in enumerate(region):
        pages = [_load_pri_page(db, page_id, fpi_by_page[page_id], report).data
                 for page_id in page_ids if page_id in fpi_by_page]
        if pages:
            db.pri.load_region(p, pages)

    # The region pages' own entries were created *after* the snapshots
    # were serialized (self-coverage ordering); re-derive them from the
    # image records just used, exactly as persist_pri recorded them.
    for page_id, (lsn, _image) in fpi_by_page.items():
        db.pri.set_backup(page_id, BackupRef.log_image(lsn), lsn,
                          db.clock.now)
        db.pri.record_write(page_id, lsn)


def _load_pri_page(db, page_id: int, fpi: tuple[int, bytes],  # noqa: ANN001
                   report: RestartReport) -> Page:
    # Figure 8 before the index exists: the PageLSN to expect is the
    # in-log image's, not the PRI's, so this is the one device read that
    # does not go through RecoveryManager.read.
    expected_lsn, image = fpi
    try:
        data = db.device.read(page_id)
        if inspect_page(data, page_id) == expected_lsn:
            return Page.adopt(data)
    except (DeviceReadError, SinglePageFailure):
        pass
    # The device copy is damaged or stale: restore from the in-log
    # image (single-page recovery of the PRI, Section 5.2).
    page_size = db.config.page_size
    page = Page(page_size, decompress_image(image, page_size))
    page.page_lsn = expected_lsn
    page.seal()
    try:
        db.device.remap(page_id, "PRI page failure at restart")
    except StorageError:
        pass  # spares exhausted: rewrite in place
    db.device.write(page_id, page.data)
    report.pri_pages_repaired += 1
    db.counters.pri_pages_repaired.inc()
    return page
