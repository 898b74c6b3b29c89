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
import struct
from dataclasses import dataclass, field

from repro.core.recovery_index import PartitionedRecoveryIndex
from repro.engine.pending_recovery import DeviceImage, PendingRecovery
from repro.errors import SinglePageFailure, StorageError
from repro.page.page import Page
from repro.page.slotted import inspect_page
from repro.sim.clock import StopWatch
from repro.storage.device import DeviceReadError
from repro.wal.lsn import LOG_START, NULL_LSN
from repro.wal.records import BackupRef, LogRecord, LogRecordKind, decompress_image


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

    report = RestartReport()
    cfg = db.config
    report.mode = mode or cfg.restart_mode
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
        record = (db.log.record_at(last_lsn)
                  if last_lsn != NULL_LSN and db.log.has_record(last_lsn)
                  else None)
        if record is not None and record.kind == LogRecordKind.PREPARE:
            indoubt[txn_id] = (record.gtid, last_lsn)
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


def note_txn_record(att: dict[int, tuple[int, bool]],
                    record: LogRecord) -> None:
    """Apply one record's effect to an active-transaction table
    (txn_id -> (last_lsn, is_system)).

    The single definition of loser tracking, shared by restart
    analysis and media-recovery analysis — the two recoveries must
    never disagree on what counts as an unfinished transaction.
    """
    if not record.txn_id:
        return
    if record.commits_txn or record.kind == LogRecordKind.ABORT:
        # Committed (by its last record's bit or a commit record) or
        # rolled back: no longer a loser.
        att.pop(record.txn_id, None)
    else:
        prior = att.get(record.txn_id)
        att[record.txn_id] = (record.lsn, prior[1] if prior else False)


def _analysis(db, report: RestartReport):  # noqa: ANN001
    cfg = db.config
    start_lsn = db.log.master_checkpoint_lsn or LOG_START
    records = db.log_reader.scan_from(start_lsn)
    dpt: dict[int, int] = {}
    last_update: dict[int, int] = {}
    att: dict[int, tuple[int, bool]] = {}
    page_records: dict[int, list[LogRecord]] = {}
    max_txn = 0
    pri_region = range(cfg.pri_region_start, cfg.pri_region_end)

    for record in records:
        report.analysis_records += 1
        kind = record.kind
        if kind == LogRecordKind.CHECKPOINT_END and record.checkpoint is not None:
            for page_id, rec_lsn in record.checkpoint.dirty_pages.items():
                dpt.setdefault(page_id, rec_lsn)
            for txn_id, last_lsn, is_system in record.checkpoint.active_txns:
                att[txn_id] = (last_lsn, is_system)
                max_txn = max(max_txn, txn_id)
            continue
        if record.txn_id:
            max_txn = max(max_txn, record.txn_id)
        note_txn_record(att, record)
        page_id = record.page_id
        if record.is_page_update and page_id >= 0:
            if (kind == LogRecordKind.FULL_PAGE_IMAGE
                    and page_id in pri_region):
                # PRI region pages were handled in the load phase.
                continue
            dpt.setdefault(page_id, record.lsn)
            last_update[page_id] = record.lsn
            page_records.setdefault(page_id, []).append(record)
            if kind == LogRecordKind.FORMAT_PAGE and cfg.spf_enabled:
                db.pri.set_backup(page_id, BackupRef.format_record(record.lsn),
                                  record.lsn, db.clock.now)
        elif kind == LogRecordKind.PRI_UPDATE:
            # Completed writes: everything logged on each page up to its
            # PageLSN is on disk; a page not updated since leaves the
            # recovery requirements (Figure 12, analysis row 2 / the
            # Figure-4 optimization).
            for page_id, page_lsn in record.writes:
                if (last_update.get(page_id, NULL_LSN) <= page_lsn
                        and page_id in dpt):
                    dpt.pop(page_id)
                    page_records.pop(page_id, None)
                    report.pages_trimmed_by_write_logging += 1
                if cfg.spf_enabled:
                    db.pri.record_write(page_id, page_lsn)
        elif kind == LogRecordKind.BACKUP_PAGE and page_id >= 0:
            if cfg.spf_enabled and record.backup_ref is not None:
                db.pri.set_backup(page_id, record.backup_ref,
                                  record.page_lsn, db.clock.now)
        elif (kind == LogRecordKind.BACKUP_FULL and cfg.spf_enabled
                and db.backup_store.has_full_backup(record.backup_id)):
            # The guard covers two cases: a retired backup (its record
            # outlives the media) and a promoted standby (its adopted
            # log holds the old primary's BACKUP_FULL records, but its
            # backup store starts empty).
            lsns = db.backup_store.full_backup_lsns(record.backup_id)
            if lsns:
                db.pri.set_range_backup(0, max(lsns) + 1,
                                        BackupRef.full_backup(record.backup_id),
                                        record.lsn, db.clock.now)

    # Records before the checkpoint for pages whose rec_lsn precedes it.
    min_rec = min(dpt.values(), default=None)
    if min_rec is not None and min_rec < start_lsn:
        for record in db.log_reader.scan_from(min_rec):
            if record.lsn >= start_lsn:
                break
            page_id = record.page_id
            if (record.is_page_update and page_id in dpt
                    and record.lsn >= dpt[page_id]):
                page_records.setdefault(page_id, [])
                page_records[page_id].insert(
                    _insert_pos(page_records[page_id], record.lsn), record)
    return dpt, att, page_records, max_txn


def _insert_pos(records: list[LogRecord], lsn: int) -> int:
    """Insertion point keeping ``records`` sorted by LSN.

    Binary search: the pre-checkpoint backfill may prepend thousands of
    records per page, and a linear scan made that O(n²).
    """
    return bisect.bisect_left(records, lsn, key=lambda record: record.lsn)


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
    master = db.log.record_at(start_lsn)
    if master.kind != LogRecordKind.CHECKPOINT_END or master.checkpoint is None:
        return
    fpi_by_page: dict[int, LogRecord] = {}
    for page_id, lsn in master.checkpoint.pri_images.items():
        if db.log.has_record(lsn):
            fpi_by_page[page_id] = db.log.record_at(lsn)
    if not fpi_by_page:
        return

    partitions = (db.pri.partitions
                  if isinstance(db.pri, PartitionedRecoveryIndex) else (db.pri,))
    for p, partition in enumerate(partitions):
        chunks: dict[int, bytes] = {}
        total_pages = None
        for page_id in db.checkpointer.pri_partition_pages(p):
            record = fpi_by_page.get(page_id)
            if record is None:
                continue
            page = _load_pri_page(db, page_id, record, report)
            length, seq, total = struct.unpack_from("<IHH", page.data, 32)
            total_pages = total
            chunks[seq] = bytes(page.data[40:40 + length])
        if total_pages is None:
            continue
        partition.load(b"".join(chunks[i] for i in sorted(chunks)))

    # The region pages' own entries were created *after* the snapshots
    # were serialized (self-coverage ordering); re-derive them from the
    # image records just used, exactly as persist_pri recorded them.
    for page_id, record in fpi_by_page.items():
        db.pri.set_backup(page_id, BackupRef.log_image(record.lsn),
                          record.lsn, db.clock.now)
        db.pri.record_write(page_id, record.lsn)


def _load_pri_page(db, page_id: int, fpi: LogRecord,  # noqa: ANN001
                   report: RestartReport) -> Page:
    # Figure 8 before the index exists: the PageLSN to expect is the
    # in-log image's, not the PRI's, so this is the one device read that
    # does not go through RecoveryManager.read.
    expected_lsn = fpi.lsn
    try:
        data = db.device.read(page_id)
        if inspect_page(data, page_id) == expected_lsn:
            return Page.adopt(data)
    except (DeviceReadError, SinglePageFailure):
        pass
    # The device copy is damaged or stale: restore from the in-log
    # image (single-page recovery of the PRI, Section 5.2).
    page_size = db.config.page_size
    page = Page(page_size, decompress_image(fpi.image or b"", page_size))
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
