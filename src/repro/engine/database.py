"""The database engine facade.

One :class:`Database` owns one simulated device, one recovery log, one
buffer pool, a transaction manager, and — when single-page failures
are enabled — the page recovery index, the backup store, and the
recovery machinery of Sections 5.2.2–5.2.6.  The engine core is
decomposed into cohesive components that the facade wires together:

* :class:`repro.engine.catalog.Catalog` — metadata-page records and
  the index registry;
* :class:`repro.engine.allocator.PageAllocator` — page allocation and
  the free-space pool;
* :class:`repro.engine.checkpointer.Checkpointer` — checkpoints, PRI
  persistence, page backups, and log retention/truncation;
* :class:`repro.core.recovery_manager.RecoveryManager` — the Figure-8
  page-retrieval logic, installed as the buffer pool's fetcher *and*
  repairer, so every read through :meth:`repro.buffer.buffer_pool.
  BufferPool.fix` transparently detects and repairs page failures.

Page layout on the device::

    page 0                      metadata (index roots, allocation state)
    pages 1 .. 2K               page-recovery-index region (K per partition;
                                even pids hold partition 0, odd partition 1)
    pages 2K+1 ..               data pages (B-tree nodes etc.)

Crash simulation: :meth:`crash` keeps the :class:`DurableState` —
device, durable log prefix, backup store, pending-restore slot — and
rebuilds every other component through the same :meth:`Database._open`
a new engine runs; :meth:`restart` then runs ARIES restart with the
paper's Figure-12 PRI reconciliation.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass

from repro.btree.node import BTreeNode
from repro.btree.tree import FosterBTree, not_bytes
from repro.buffer.buffer_pool import BufferPool
from repro.core.backup import BackupStore
from repro.core.failure_classes import FailureEvent
from repro.core.recovery_index import PartitionedRecoveryIndex
from repro.core.recovery_manager import FAILURE_RING, RecoveryManager
from repro.core.single_page import SinglePageRecovery
from repro.detect.scrubber import Scrubber, ScrubReport
from repro.engine.allocator import PageAllocator
from repro.engine.catalog import METADATA_PAGE, Catalog
from repro.engine.checkpointer import Checkpointer
from repro.engine.config import EngineConfig
from repro.errors import (
    ConfigError,
    MediaFailure,
    SinglePageFailure,
    SystemFailure,
)
from repro.page.page import Page, PageType
from repro.page.slotted import SlottedPage
from repro.sim.clock import SimClock
from repro.sim.stats import Handle, Stats
from repro.storage.device import StorageDevice
from repro.storage.faults import FaultInjector
from repro.sync import ReadWriteLatch
from repro.txn.locks import LockManager
from repro.txn.manager import TransactionManager
from repro.txn.transaction import Transaction, TxnState
from repro.wal.log_manager import LogManager
from repro.wal.log_reader import LogReader
from repro.wal import ops
from repro.wal.records import BackupRef, LogicalUndo


_COMMITTED = TxnState.COMMITTED


class EngineCounters:
    """Handles for what the engine counts outside its components: in
    :class:`Database` itself and in the functions that take one
    (restart, media recovery, loser undo, standby seeding)."""

    def __init__(self, stats: Stats) -> None:
        counter = stats.counter
        self.system_crashes = counter("system_crashes")
        self.restarts = counter("restarts")
        self.instant_restarts = counter("instant_restarts")
        self.restart_undo_txns = counter("restart_undo_txns")
        self.indoubt_txns_recovered = counter("indoubt_txns_recovered")
        self.pri_pages_repaired = counter("pri_pages_repaired")
        self.media_recoveries = counter("media_recoveries")
        self.instant_restores = counter("instant_restores")
        self.txns_killed_by_media_failure = counter(
            "txns_killed_by_media_failure")
        self.standby_attaches = counter("standby_attaches")
        self.standby_seed_images_repaired = counter(
            "standby_seed_images_repaired")


@dataclass
class DurableState:
    """What a system failure leaves: everything a new process opens the
    engine over (:meth:`Database._open`), and all a crash keeps."""

    device: StorageDevice
    #: the durable log prefix, with the master checkpoint pointer
    log: LogManager
    backup_store: BackupStore
    #: the full backup an unfinished media restore reads from: set by
    #: media recovery, cleared at the restore's completion watermark, so
    #: a crash in between re-runs the restore from the same backup
    restore_backup_id: int | None = None


class Database:
    """A single-node database engine over one simulated device."""

    def __init__(self, config: EngineConfig | None = None,
                 clock: SimClock | None = None,
                 stats: Stats | None = None,
                 injector: FaultInjector | None = None,
                 durable: DurableState | None = None) -> None:
        # What follows up to ``durable`` survives a crash, each for its
        # reason.  The constructor's arguments are the environment the
        # process runs in, not the process.
        self.config = cfg = config or EngineConfig()
        self.clock = clock or SimClock()
        self.stats = stats or Stats()
        self.counters = EngineCounters(self.stats)
        self.injector = injector or FaultInjector(seed=cfg.seed)

        #: observation hooks, kept because they belong to whoever installed
        #: them (the chaos harness): ``crash_hooks`` fire at the end of
        #: :meth:`crash`; ``recovery_hooks`` fire with ``(kind, report)``
        #: after a :meth:`restart` ("restart") or :meth:`recover_media`
        #: ("media") returns, whatever code path initiated it
        self.crash_hooks: list = []
        self.recovery_hooks: list = []

        #: hot standby replicating *from* this node, plus its shipping
        #: link (a SegmentShipper), kept because it is another node; see
        #: :meth:`attach_standby`
        self.standby = None
        self.standby_link = None

        #: the repair trace (:meth:`recent_failures`), kept because it is
        #: the operator's record, not the engine's volatile state
        self.repair_events: deque[FailureEvent] = deque(maxlen=FAILURE_RING)

        self.durable = durable or DurableState(
            StorageDevice("db0", cfg.page_size, cfg.capacity_pages,
                          self.clock, cfg.device_profile, self.stats,
                          self.injector, proof_read=cfg.proof_read_writes),
            LogManager(self.clock, cfg.log_profile, self.stats,
                       segment_bytes=cfg.log_segment_bytes),
            BackupStore(self.clock, cfg.backup_profile, self.stats,
                        cfg.page_size))
        self._open()
        if durable is None:
            # A new database has nothing to recover; over existing durable
            # state (a promotion) it stays crashed until restart().
            self._bootstrap()
            self._crashed = False

    # ------------------------------------------------------------------
    # Opening over the durable state
    # ------------------------------------------------------------------
    def _open(self) -> None:
        """Build every volatile component over :attr:`durable`, as a new
        process would; the engine is crashed until :meth:`restart`."""
        durable = self.durable
        self.log = durable.log
        self.backup_store = durable.backup_store
        self.tm = TransactionManager(self.log, self.stats)
        self.tm.ack_mode = self.config.commit_ack_mode
        self.locks = self.tm.locks = LockManager()
        self.pri = PartitionedRecoveryIndex()
        self.allocator = PageAllocator(self)
        self.checkpointer = Checkpointer(self)

        #: the one pending recovery — restart or media restore, never
        #: both (None = idle); see repro.engine.pending_recovery
        self.pending_recovery = None
        #: completion watermarks of the most recent restart / restore
        self.last_restart_completion_lsn: int | None = None
        self.last_restore_completion_lsn: int | None = None

        #: in-doubt (prepared, undecided) 2PC transactions recovered by
        #: restart/media analysis, keyed by global transaction id; each
        #: holds its key locks until :meth:`resolve_indoubt` delivers
        #: the coordinator's decision.  The next analysis rebuilds it
        #: from the PREPARE records.
        self.indoubt: dict[int, object] = {}

        #: the engine read/write latch: sessions take it shared for
        #: lookups and exclusive for structural work (see
        #: :mod:`repro.engine.session`); the single-threaded Database
        #: API never touches it, so embeddings and the deterministic
        #: chaos harness are unaffected
        self.latch = ReadWriteLatch()

        self._open_device()
        self._crashed = True
        self._media_failed = (durable.device.failed
                              or durable.restore_backup_id is not None)

    def _open_device(self) -> None:
        """The half of :meth:`_open` bound to ``durable.device``: the
        catalog, the recovery stack and the buffer pool (media recovery
        reruns it over the replacement device)."""
        cfg = self.config
        self.device = device = self.durable.device
        self.catalog = Catalog(self)
        self.log_reader = LogReader(self.log, self.clock, cfg.log_profile,
                                    self.stats)
        if cfg.spf_enabled:
            self.single_page = SinglePageRecovery(
                self.pri, self.backup_store, self.log_reader, device,
                self.clock, self.stats, standby=self.standby)
        else:
            self.single_page = None
        self.recovery_manager = RecoveryManager(
            device, self.pri, self.single_page, self.clock, self.stats,
            self.repair_events,
            single_device_node=cfg.single_device_node,
            on_media_failure=self._on_media_failure,
            pri_lsn_check=cfg.pri_lsn_check and cfg.spf_enabled)
        self.pool = BufferPool(
            device, self.log, self.stats, cfg.buffer_capacity,
            fetcher=self.recovery_manager.fetch_page,
            on_before_write=self.checkpointer.on_before_write,
            repairer=self.recovery_manager.handle_failure,
            on_run_cleaned=self.checkpointer.on_run_cleaned)

    def _bootstrap(self) -> None:
        """Create the metadata page of a fresh database."""
        sys_txn = self.tm.begin(system=True)
        page = Page.format(self.config.page_size, METADATA_PAGE,
                           PageType.METADATA)
        self.pool.fix_new(page)
        format_lsn = self.tm.log_format(sys_txn, page, 0,
                                        ops.init_slotted(PageType.METADATA))
        self.note_format(page.page_id, format_lsn)
        self.pool.mark_dirty(page.page_id, format_lsn)
        slotted = SlottedPage(page)
        for key, value in ((b"next_free", self.config.data_start),
                           (b"next_index", 1)):
            self.tm.log_update(
                sys_txn, METADATA_PAGE, page, 0,
                ops.insert(slotted.slot_count, key, struct.pack("<q", value)))
        self.pool.unfix(page.page_id)  # dirty since its format
        self.tm.commit(sys_txn)
        self.log.force()

    def note_format(self, page_id: int, format_lsn: int) -> None:
        """A formatting record doubles as the page's backup image."""
        if self.config.spf_enabled:
            self.pri.set_backup(page_id, BackupRef.format_record(format_lsn),
                                format_lsn, self.clock.now)

    # ------------------------------------------------------------------
    # TreeContext protocol (used by FosterBTree, which pins through
    # ``pool`` and reads ``catalog.roots`` in place; ``pool`` serves the
    # TransactionManager's UndoContext too)
    # ------------------------------------------------------------------
    def allocate_page(self, txn: Transaction, page_type: PageType,
                      index_id: int) -> Page:
        return self.allocator.allocate_page(txn, page_type, index_id)

    def set_root(self, txn: Transaction, index_id: int, root_pid: int) -> None:
        self.catalog.set_root(txn, index_id, root_pid)

    def handle_invariant_failure(self, failure: SinglePageFailure) -> Page:
        """Cross-page verification failed mid-traversal (Section 4.2).

        Routed through the buffer pool's fix path: the pool quarantines
        the suspect frame, runs Figure-8 dispatch via its repairer, and
        re-fixes the repaired page (Figure-10 recovery on the read path).
        """
        return self.pool.repair_failure(failure)

    def take_page_copy(self, page: Page) -> int:
        return self.checkpointer.take_page_copy(page)

    # ------------------------------------------------------------------
    # UndoContext protocol (used by TransactionManager)
    # ------------------------------------------------------------------
    def logical_compensate(self, txn: Transaction, index_id: int,
                           undo: LogicalUndo, undo_next_lsn: int) -> None:
        self.tree(index_id).compensate(txn, undo, undo_next_lsn)

    def key_prefix(self, page: Page) -> bytes:
        return BTreeNode(page).prefix

    # ------------------------------------------------------------------
    # Catalog objects
    # ------------------------------------------------------------------
    def create_index(self) -> FosterBTree:
        self._require_running()
        return self.catalog.create_index()

    def tree(self, index_id: int) -> FosterBTree:
        return self.catalog.trees[index_id]

    @property
    def indexes(self) -> list[int]:
        return sorted(self.catalog.trees)

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    def begin(self) -> Transaction:
        if self._crashed or self._media_failed:
            self._require_running()
        return self.tm.begin()

    def commit(self, txn: Transaction) -> int:
        return self.tm.commit(txn)

    def abort(self, txn: Transaction) -> None:
        self.tm.abort(txn, self)

    def abort_quietly(self, txn: Transaction) -> None:
        """Roll back on the way out of a failed operation, keeping the
        original error the one the caller sees.  A transaction the
        engine no longer lists — finished, or disowned by the very
        failure being reported (a crash wiped the active table, a media
        failure killed it) — is left to recovery's analysis, as is one
        whose rollback fails (a repair escalating mid-undo).  The
        engine lists it as this very object: after a crash and restart
        a new transaction may hold the same id.  An unlisted write is
        listed nowhere: :meth:`end_autocommit` rules out its disowning."""
        if not txn.redo_only and self.tm.active.get(txn.txn_id) is not txn:
            return
        try:
            self.abort(txn)
        except Exception:  # noqa: BLE001 - the original error propagates
            pass

    def autocommit_write(self, tree: FosterBTree, key: bytes,
                         value: bytes | None,
                         expect_live: bool | None = None) -> bool | None:
        """Write ``key`` -> ``value`` into ``tree`` (``None`` deletes) in
        a transaction of its own; returns what the tree's write returned
        (for a delete: whether a record went).  ``expect_live`` is
        :meth:`repro.btree.tree.FosterBTree._write`'s: ``None`` writes
        whatever the key's state (the client's and the shard worker's
        put and delete), ``True`` requires a live record
        (:meth:`update`, :meth:`delete`), ``False`` none
        (:meth:`insert`).

        The write is *unlisted*: the next transaction id, as
        :meth:`begin` takes it, but no active-table entry and no key
        lock.  The key is checked by the lock table's conflict rules
        (:meth:`repro.txn.locks.LockManager.check`: a pending loser is
        rolled back, any other holder raises ``LockConflict``), and
        nothing comes between the check and the commit: the one record
        is redo-only and commits as it is appended, so
        :meth:`end_autocommit` owes it the force alone.  A ghost's
        revival, two records with undo, enlists before the first
        (:meth:`repro.txn.manager.TransactionManager.enlist`).
        """
        if self._crashed or self._media_failed:
            self._require_running()
        txn = self.tm.begin_unlisted()
        txn.redo_only = True
        try:
            self.locks.check(txn.txn_id, key)
            if value is None:
                done = tree.delete(txn, key, missing_ok=not expect_live)
            elif expect_live is None:
                done = tree.insert(txn, key, value, replace=True)
            elif expect_live:
                done = tree.update(txn, key, value)
            else:
                done = tree.insert(txn, key, value)
        except BaseException:
            self.end_autocommit(txn, failed=True)
            raise
        self.end_autocommit(txn)
        return done

    def run_autocommit(self, body, *args):  # noqa: ANN001, ANN201
        """Run ``body(txn, *args)`` in a private, listed transaction of
        its own and end it by :meth:`end_autocommit`; returns what
        ``body`` returned.  The autocommit callers of more than one key
        — the client's and the worker's batch, the worker's slot moves —
        come through here; a one-key write is :meth:`autocommit_write`."""
        txn = self.begin()
        try:
            result = body(txn, *args)
        except BaseException:
            self.end_autocommit(txn, failed=True)
            raise
        self.end_autocommit(txn)
        return result

    def end_autocommit(self, txn: Transaction, failed: bool = False) -> None:
        """End ``txn``, a private transaction around one operation, by
        the one set of exit rules every autocommit caller shares — the
        unlisted write of :meth:`autocommit_write` and the listed
        transaction of :meth:`run_autocommit` alike.

        A body that returned (``failed`` False) commits; a commit that
        raises rolls back — quietly, see :meth:`abort_quietly` — so no
        failure can leave the transaction active and its keys locked.
        A listed transaction whose body failed rolls back quietly.

        An unlisted write (``txn.redo_only``) that failed is in no
        table, so the engine's state says whether the failure disowned
        it.  Crashed — a new transaction manager, until a restart no
        write outlives — it is left to recovery.  Media failed, it is
        counted among the transactions the failure killed.  Neither, a
        write committed at its append (a repair escalating as the leaf
        is unpinned) gets its force, and one that logged nothing rolls
        back, logging its ABORT alone.  Nothing is forced for a
        disowned write; the caller's error propagates.
        """
        if not failed:
            try:
                self.commit(txn)
            except BaseException:
                self.abort_quietly(txn)
                raise
        elif not txn.redo_only:
            self.abort_quietly(txn)
        elif self._crashed:
            return  # disowned: left to restart
        elif self._media_failed:
            self.counters.txns_killed_by_media_failure.inc()
        elif txn.state is _COMMITTED:
            self.commit(txn)
        else:
            self.abort_quietly(txn)

    def group_commit(self):  # noqa: ANN201 - context manager
        """Batch user commits into one log force (group commit)."""
        return self.tm.group_commit()

    # Two-phase commit participation (sharded deployments) -------------
    def prepare(self, txn: Transaction, gtid: int) -> int:
        """2PC phase one: force a PREPARE record for a local branch."""
        self._require_running()
        return self.tm.prepare(txn, gtid)

    def commit_prepared(self, txn: Transaction) -> int:
        """2PC phase two, decision = commit, for a live prepared branch."""
        self._require_running()
        return self.tm.commit_prepared(txn)

    def abort_prepared(self, txn: Transaction) -> None:
        """2PC phase two, decision = abort, for a live prepared branch."""
        self._require_running()
        self.tm.abort_prepared(txn, self)

    def resolve_indoubt(self, gtid: int, commit: bool) -> int | None:
        """Deliver the coordinator's decision to a recovered in-doubt
        branch (see :attr:`indoubt`); returns the commit LSN or
        ``None`` for an abort.

        Idempotent against re-delivery: resolving a gtid with no
        in-doubt entry raises :class:`repro.errors.RecoveryError`, so
        the caller can distinguish "already resolved" via
        :attr:`indoubt` membership first.
        """
        from repro.errors import RecoveryError

        self._require_running()
        entry = self.indoubt.get(gtid)
        if entry is None:
            raise RecoveryError(f"no in-doubt transaction for gtid {gtid}")
        txn = Transaction(entry.txn_id)
        txn.state = TxnState.PREPARED
        txn.last_lsn = entry.last_lsn
        txn.first_lsn = entry.first_lsn
        # The entry leaves the registry only once the branch finished —
        # a failure mid-rollback keeps it resolvable (CLRs make the
        # retry restartable).
        if commit:
            lsn = self.tm.commit_prepared(txn)
            self.indoubt.pop(gtid, None)
            return lsn
        self.tm.abort_prepared(txn, self)
        self.indoubt.pop(gtid, None)
        return None

    def session(self):  # noqa: ANN201 - Session
        """A transactional handle for one worker thread.

        Creating the first session arms the log's cross-thread
        group-commit barrier (window from ``config.
        commit_window_seconds``); N sessions on N threads then run
        against this one engine, commits amortizing forces through the
        leader/rider protocol.  See :mod:`repro.engine.session`.
        """
        from repro.engine.session import Session

        self.log.enable_cross_thread_commit(
            self.config.commit_window_seconds)
        self.stats.enable_locking()
        return Session(self)

    # Convenience single-operation transactions ------------------------
    # Each runs in ``txn`` under its key lock or, given none, as an
    # autocommit write of its own (autocommit_write).
    def insert(self, tree: FosterBTree, key: bytes, value: bytes,
               txn: Transaction | None = None) -> None:
        if txn is None:
            if value is None:
                raise not_bytes(key, value)
            self.autocommit_write(tree, key, value, False)
        else:
            self._lock(txn, key)
            tree.insert(txn, key, value)

    def update(self, tree: FosterBTree, key: bytes, value: bytes,
               txn: Transaction | None = None) -> None:
        if txn is None:
            if value is None:
                raise not_bytes(key, value)
            self.autocommit_write(tree, key, value, True)
        else:
            self._lock(txn, key)
            tree.update(txn, key, value)

    def delete(self, tree: FosterBTree, key: bytes,
               txn: Transaction | None = None) -> None:
        if txn is None:
            self.autocommit_write(tree, key, None, True)
        else:
            self._lock(txn, key)
            tree.delete(txn, key)

    def _lock(self, txn: Transaction, key: bytes) -> None:
        self._require_running()
        self.locks.acquire(txn.txn_id, key)

    # ------------------------------------------------------------------
    # Replication (PR 7)
    # ------------------------------------------------------------------
    def attach_standby(self, mode: str = "tail"):  # noqa: ANN201 - Standby
        """Attach (or re-seed) an in-process log-shipped hot standby.

        Seeds the standby from the primary's current state — verified
        page images plus the retained durable log backlog — then hooks
        a :class:`repro.engine.replication.SegmentShipper` into the log
        so every force streams the newly durable tail.  ``mode``:
        ``"tail"`` ships every durable record as it hardens;
        ``"segment"`` ships only sealed log segments (the shipping unit
        of classic log shipping — the open segment lags naturally); any
        other is a :class:`ConfigError` before anything is seeded.

        The standby then serves as the *fifth* (and first-tried) repair
        source for single-page recovery, as the ack target of
        ``replicated_durable`` commits, and as the failover target via
        :meth:`repro.engine.replication.Standby.promote`.
        """
        from repro.engine.replication import SHIP_MODES, SegmentShipper, Standby

        self._require_running()
        if mode not in SHIP_MODES:
            raise ConfigError(
                f"ship mode must be 'tail' or 'segment', got {mode!r}")
        standby = Standby(self.config, self.clock, self.stats)
        standby.seed_from(self)
        self.log.shipper = SegmentShipper(self.log, standby, mode=mode)
        self.standby = standby
        self.standby_link = self.log.shipper
        if self.single_page is not None:
            self.single_page.standby = standby
        self.counters.standby_attaches.inc()
        return standby

    def detach_standby(self) -> None:
        """Drop the standby and its shipping link entirely."""
        self.log.shipper = None
        self.standby = None
        self.standby_link = None
        if self.single_page is not None:
            self.single_page.standby = None

    # ------------------------------------------------------------------
    # Checkpoints, backups, retention (delegated to the checkpointer)
    # ------------------------------------------------------------------
    def checkpoint(self) -> int:
        self._require_running()
        return self.checkpointer.checkpoint()

    def take_full_backup(self) -> int:
        self._require_running()
        return self.checkpointer.take_full_backup()

    def take_log_image(self, page_id: int) -> int:
        self._require_running()
        return self.checkpointer.take_log_image(page_id)

    def log_retention_bound(self) -> int:
        return self.checkpointer.log_retention_bound()

    def truncate_log(self, copy_forward: bool = True,
                     copy_budget: int = 64) -> int:
        self._require_running()
        return self.checkpointer.truncate_log(copy_forward, copy_budget)

    # ------------------------------------------------------------------
    # Crash / restart / media failure
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Simulate a system failure: the log keeps its durable prefix,
        every volatile structure is lost, and the engine reopens over
        :attr:`durable` alone, crashed until :meth:`restart`."""
        # The one stand-in on the keep-list: a fresh transaction manager
        # floored by restart analysis could reuse the ids of transactions
        # that logged nothing since the last checkpoint, until the
        # checkpoint carries the next id (ROADMAP item 2).
        txn_id_floor = self.tm.next_txn_id - 1
        self.log.crash()
        self._open()
        self.tm.restore_txn_id_floor(txn_id_floor)
        self.counters.system_crashes.inc()
        for hook in self.crash_hooks:
            hook(self)

    def restart(self, mode: str | None = None):  # noqa: ANN201 - RestartReport
        """ARIES restart with Figure-12 PRI reconciliation.

        ``mode`` overrides ``config.restart_mode`` for this restart:
        ``"eager"`` recovers fully before returning; ``"on_demand"``
        runs analysis only and returns with the database open and the
        remaining work registered (see :attr:`pending_recovery`,
        :meth:`drain_restart`, :meth:`finish_restart`).
        """
        from repro.engine.system_recovery import run_restart

        report = run_restart(self, mode)
        for hook in self.recovery_hooks:
            hook(self, "restart", report)
        return report

    def drain_pending(self, page_budget: int | None = None,
                      loser_budget: int | None = None) -> tuple[int, int]:
        """Background drain of whatever recovery is pending (bounded by
        the budgets); returns ``(pages_resolved, losers_resolved)``."""
        if self.pending_recovery is None:
            return 0, 0
        return self.pending_recovery.drain(page_budget, loser_budget)

    @property
    def restart_pending(self) -> bool:
        """Is restart work still unresolved?"""
        recovery = self.pending_recovery
        return recovery is not None and recovery.source.kind == "restart"

    def drain_restart(self, page_budget: int | None = None,
                      loser_budget: int | None = None) -> tuple[int, int]:
        """:meth:`drain_pending`, if the pending recovery is a restart."""
        if not self.restart_pending:
            return 0, 0
        return self.drain_pending(page_budget, loser_budget)

    def finish_restart(self) -> tuple[int, int]:
        """Resolve every pending page and loser of a restart (the
        completion watermark is recorded once the last item resolves)."""
        return self.drain_restart()

    def _on_media_failure(self, media: MediaFailure) -> int:
        """Escalation callback: abort every active user transaction (an
        unlisted write in flight counts itself, :meth:`end_autocommit`)."""
        victims = [txn for txn in list(self.tm.active.values())
                   if not txn.is_system]
        for txn in victims:
            # The device is gone; undo work is deferred to media
            # recovery.  Transactions simply fail.
            txn_id = txn.txn_id
            self.tm.active.pop(txn_id, None)
            self.locks.release_all(txn_id)
        self._media_failed = True
        self.counters.txns_killed_by_media_failure.inc(len(victims))
        return len(victims)

    def recover_media(self, backup_id: int,
                      mode: str | None = None):  # noqa: ANN201
        """Media recovery (Section 5.1.3), eager or on demand.

        ``mode`` overrides ``config.restore_mode`` for this recovery:
        ``"eager"`` restores the whole device before returning;
        ``"on_demand"`` reopens immediately with the remaining work
        registered (see :attr:`pending_recovery`,
        :meth:`drain_restore`, :meth:`finish_restore`).
        """
        from repro.engine.media_recovery import run_media_recovery

        report = run_media_recovery(self, backup_id, mode)
        for hook in self.recovery_hooks:
            hook(self, "media", report)
        return report

    @property
    def restore_pending(self) -> bool:
        """Is media-restore work still unresolved?"""
        recovery = self.pending_recovery
        return recovery is not None and recovery.source.kind == "restore"

    def drain_restore(self, page_budget: int | None = None,
                      loser_budget: int | None = None) -> tuple[int, int]:
        """:meth:`drain_pending`, if the pending recovery is a restore."""
        if not self.restore_pending:
            return 0, 0
        return self.drain_pending(page_budget, loser_budget)

    def finish_restore(self) -> tuple[int, int]:
        """Restore every pending page and undo every pending loser
        (the completion watermark is recorded once the last item
        resolves)."""
        return self.drain_restore()

    def retire_backups(self) -> list[int]:
        """Retire superseded full backups (gated on the restore
        completion watermark and live recovery-index references)."""
        return self.checkpointer.retire_full_backups()

    def _require_running(self) -> None:
        if self._crashed:
            raise SystemFailure("database crashed; call restart() first")
        if self._media_failed:
            raise MediaFailure(self.device.name,
                               "media failed; run media recovery first")

    # ------------------------------------------------------------------
    # Scrubbing, helpers
    # ------------------------------------------------------------------
    def scrub(self, repair: bool = True) -> ScrubReport:
        """Scrub all allocated pages not currently buffered."""
        self._require_running()
        vacant = self.checkpointer.vacant_pri_pages()
        scrubber = Scrubber(
            self.device, self.recovery_manager, self.stats,
            skip=lambda page_id: (self.pool.resident(page_id)
                                  or page_id in vacant))
        return scrubber.scrub(0, self.allocated_pages(), repair=repair)

    def trusted_image(self, page_id: int, raw: bytes, repaired: Handle) -> bytes:
        """``raw`` — a device image read beside the fetch path (the full
        backup's, the standby seed's) — if the Figure 8 verdict passes
        it; else, counted on ``repaired``, the page through the pool's
        detect-and-repair fix path."""
        try:
            self.recovery_manager.inspect(page_id, raw)
            return raw
        except SinglePageFailure:
            repaired.inc()
        page = self.pool.fix(page_id)
        try:
            return bytes(page.data)
        finally:
            self.pool.unfix(page_id)

    def recent_failures(self) -> list[FailureEvent]:
        """The most recent page repairs and escalations, oldest first
        (a bounded ring, see :data:`repro.core.recovery_manager.
        FAILURE_RING`): page, detected by what, repaired from which
        source, replaying how many records, at what cost."""
        return list(self.repair_events)

    def allocated_pages(self) -> int:
        return self.allocator.allocated_pages()

    def flush_everything(self) -> None:
        """Force all dirty pages out, one write-back run (used by
        experiments)."""
        self.pool.flush_all()

    def evict_everything(self) -> None:
        """Flush and evict every unpinned frame, one write-back run."""
        self.pool.evict_all()
