"""The transaction manager: begin/commit/abort and rollback.

Commit semantics follow Figure 5.  A commit is one bit — "this
transaction's last record was its last" — made durable by a force:

* the bit is set on the transaction's last log record while that
  record is still in the log's volatile tail
  (:meth:`repro.wal.log_manager.LogManager.commit`); a COMMIT /
  SYS_COMMIT record is appended only as the fallback, when the
  transaction logged nothing or its last record has already hardened
  (another transaction's group force, a checkpoint, a write-back, a
  2PC PREPARE).  One rule for every transaction: an autocommit put, a
  32-write batch and a node split lose their commit record alike;
* user transaction commit then **forces** the log through the record
  that carries the commit (durability), in the same log-mutex hold as
  the bit;
* system transaction commit does not force — it becomes durable with
  the next force, and if a crash intervenes the (contents-neutral)
  transaction simply never happened: its records, bit included, are
  gone with the tail.

Group commit: within a :meth:`TransactionManager.group_commit` block,
user commits defer their log force; leaving the block hardens every
batched commit with **one** sequential write.  Durability is
batch-scoped — a crash inside the block loses the whole batch, which
is the standard group-commit trade the caller opts into.

Rollback walks the per-transaction chain (Section 5.1.1) backwards,
writing compensation log records (CLRs) whose ``undo_next_lsn`` makes
rollback restartable, exactly as in ARIES.  Undo is *logical* where the
record carries a :class:`LogicalUndo` (key-level compensation through
the index — the original page may have split since), and physical
otherwise.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Protocol

from repro.errors import TransactionError
from repro.page.page import Page
from repro.sim.stats import Stats
from repro.sync import Mutex
from repro.txn.locks import LockManager
from repro.txn.transaction import Transaction, TxnState
from repro.wal.log_manager import LogManager
from repro.wal.lsn import NULL_LSN
from repro.wal.ops import OpInverse, PageOp
from repro.wal.records import LogicalUndo, LogRecord, LogRecordKind

_ACTIVE = TxnState.ACTIVE
_UPDATE = LogRecordKind.UPDATE


class UndoContext(Protocol):
    """What rollback needs from the engine."""

    def fix(self, page_id: int) -> Page:
        """Bring a page into the buffer pool and return it (pinned)."""
        ...

    def unfix(self, page_id: int, dirty_lsn: int) -> None:
        """Unpin a page an undo logged ``dirty_lsn`` on."""
        ...

    def logical_compensate(self, txn: Transaction, index_id: int,
                           undo: LogicalUndo, undo_next_lsn: int) -> None:
        """Perform key-level compensation through the index.

        The callee performs the inverse operation and logs it as CLR(s)
        whose ``undo_next_lsn`` skips the record being compensated, on
        whatever page currently holds the key.
        """
        ...


class TransactionManager:
    """Owns transaction identity, logging, commit, and rollback."""

    def __init__(self, log: LogManager, stats: Stats) -> None:
        self.log = log
        self.stats = stats
        counter = stats.counter
        self._user_txns_started = counter("user_txns_started")
        self._system_txns_started = counter("system_txns_started")
        self._user_txns_committed = counter("user_txns_committed")
        self._system_txns_committed = counter("system_txns_committed")
        self._txns_aborted = counter("txns_aborted")
        self._txns_prepared = counter("txns_prepared")
        self._prepared_txns_committed = counter("prepared_txns_committed")
        self._prepared_txns_aborted = counter("prepared_txns_aborted")
        self._group_commit_batches = counter("group_commit_batches")
        self._group_commit_batched_commits = counter(
            "group_commit_batched_commits")
        self._page_updates_logged = counter("page_updates_logged")
        self._pages_formatted = counter("pages_formatted")
        self._compensations_logged = counter("compensations_logged")
        self._next_txn_id = 1
        self.active: dict[int, Transaction] = {}
        #: guards transaction identity and the active-set registry so
        #: concurrent sessions can begin/finish without losing entries
        self._mutex = Mutex()
        #: the key locks a finished transaction releases (the engine's
        #: lock table; None where nothing locks)
        self.locks: LockManager | None = None
        self._commit_batch: list[int] | None = None
        #: commit acknowledgement mode (PR 7): ``"local_durable"``
        #: returns once the commit record is forced locally;
        #: ``"replicated_durable"`` additionally blocks on the log
        #: shipper's ship-ack after the force (riding the group-commit
        #: window), raising :class:`repro.errors.ReplicationLagError`
        #: when the ack is unobtainable — the commit is locally durable
        #: and *finished* either way, only the replication guarantee is
        #: signalled as missing
        self.ack_mode = "local_durable"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def begin(self, system: bool = False) -> Transaction:
        with self._mutex:
            txn = Transaction(self._next_txn_id, system)
            self._next_txn_id += 1
            self.active[txn.txn_id] = txn
        (self._system_txns_started if system
         else self._user_txns_started).inc()
        return txn

    def restore_txn_id_floor(self, floor: int) -> None:
        """After restart recovery, never reuse pre-crash txn ids."""
        with self._mutex:
            self._next_txn_id = max(self._next_txn_id, floor + 1)

    def commit(self, txn: Transaction, defer_force: bool = False) -> int:
        """Commit; returns the LSN of the record that carries the commit
        (the transaction's last update, or a commit record of its own).

        With ``defer_force`` the commit is logged but the durability
        force is left to the caller — :class:`repro.engine.session.
        Session` uses this to commit under the engine latch and then
        wait on the cross-thread group-commit barrier with no latch
        held, so riders never block writers.
        """
        if txn.state is not _ACTIVE:
            self._require_active(txn)
        system = txn.is_system
        batch = None if system else self._commit_batch
        # Durability: user commits force the log (a group-commit batch
        # forces at its end).  The force also hardens any earlier system
        # commits ("prior to or with the commit record of any dependent
        # user transaction"); the whole buffered tail shares the write.
        force = not (system or defer_force or batch is not None)
        lsn = self.log.commit(txn.txn_id, txn.last_lsn, system, force)
        if lsn != txn.last_lsn:
            txn.note_logged(lsn)  # a commit record of its own
        if batch is not None:
            batch.append(lsn)
        (self._system_txns_committed if system
         else self._user_txns_committed).inc()
        txn.state = TxnState.COMMITTED
        with self._mutex:  # _finish, in place: every commit passes here
            self.active.pop(txn.txn_id, None)
        if self.locks is not None:
            self.locks.release_all(txn.txn_id)
        if force and self.ack_mode == "replicated_durable":
            # After _finish: the transaction IS committed and locally
            # durable; this only blocks on (or fails for want of) the
            # standby's ship-ack.
            self.log.ensure_replicated(lsn)
        return lsn

    @contextlib.contextmanager
    def group_commit(self) -> Iterator[None]:
        """Batch user commits: one log force for the whole block.

        Nested blocks join the outermost batch.  The closing force runs
        even if the block raises, so every commit that *did* return is
        durable once the block exits.  With group commit disabled on
        the log (the ablation baseline), the block is a no-op and every
        commit forces individually.
        """
        if not self.log.group_commit:
            yield  # ablation: batching disabled, per-commit forces
            return
        if self._commit_batch is not None:
            yield  # nested: the outer block's force covers us
            return
        self._commit_batch = []
        try:
            yield
        finally:
            batch, self._commit_batch = self._commit_batch, None
            if batch:
                self.log.force()
                self._group_commit_batches.inc()
                self._group_commit_batched_commits.inc(len(batch))
                if self.ack_mode == "replicated_durable":
                    # One ship-ack covers the whole batch: the force
                    # above shipped every batched commit in one send.
                    self.log.ensure_replicated(batch[-1])

    # ------------------------------------------------------------------
    # Two-phase commit participation (sharded deployments)
    # ------------------------------------------------------------------
    def prepare(self, txn: Transaction, gtid: int) -> int:
        """Phase one of 2PC: vote yes and make the vote survive a crash.

        Appends a PREPARE record carrying the global transaction id and
        forces the log: after this returns, a crash leaves the
        transaction *in doubt* — restart analysis re-registers it
        (locks re-acquired) instead of rolling it back, and the
        coordinator's decision finishes it via
        :meth:`commit_prepared` / :meth:`abort_prepared`.  The
        transaction keeps its locks and stays in the active table.
        """
        self._require_active(txn)
        if txn.is_system:
            raise TransactionError(
                f"system transaction {txn.txn_id} cannot be prepared")
        record = LogRecord(LogRecordKind.PREPARE, txn_id=txn.txn_id,
                           prev_lsn=txn.last_lsn, gtid=gtid)
        lsn = self.log.append(record)
        txn.note_logged(lsn)
        self.log.commit_force(lsn)
        txn.state = TxnState.PREPARED
        self._txns_prepared.inc()
        return lsn

    def commit_prepared(self, txn: Transaction) -> int:
        """Phase two, decision = commit: finish a prepared transaction."""
        self._require_prepared(txn)
        # The PREPARE record is durable: a forced COMMIT record of its own.
        lsn = self.log.commit(txn.txn_id, txn.last_lsn)
        txn.note_logged(lsn)
        txn.state = TxnState.COMMITTED
        self._user_txns_committed.inc()
        self._prepared_txns_committed.inc()
        self._finish(txn)
        return lsn

    def abort_prepared(self, txn: Transaction, ctx: UndoContext) -> None:
        """Phase two, decision = abort: roll back a prepared transaction."""
        self._require_prepared(txn)
        txn.state = TxnState.ACTIVE  # rollback logs against an active txn
        self.abort(txn, ctx)
        self._prepared_txns_aborted.inc()

    def _require_prepared(self, txn: Transaction) -> None:
        if txn.state != TxnState.PREPARED:
            raise TransactionError(
                f"transaction {txn.txn_id} is {txn.state.value}, "
                f"not prepared")

    def abort(self, txn: Transaction, ctx: UndoContext) -> None:
        """Roll back all of ``txn``'s updates and write the ABORT record."""
        self._require_active(txn)
        self.rollback_work(txn, ctx)
        record = LogRecord(LogRecordKind.ABORT, txn_id=txn.txn_id,
                           prev_lsn=txn.last_lsn)
        lsn = self.log.append(record)
        txn.note_logged(lsn)
        txn.state = TxnState.ABORTED
        self._txns_aborted.inc()
        self._finish(txn)

    def _require_active(self, txn: Transaction) -> None:
        if txn.state is not _ACTIVE:
            raise TransactionError(
                f"transaction {txn.txn_id} is {txn.state.value}")

    def _finish(self, txn: Transaction) -> None:
        with self._mutex:
            self.active.pop(txn.txn_id, None)
        if self.locks is not None:
            self.locks.release_all(txn.txn_id)

    # ------------------------------------------------------------------
    # Forward logging
    # ------------------------------------------------------------------
    def log_update(self, txn: Transaction, page: Page, index_id: int,
                   op: PageOp, undo: LogicalUndo | None = None) -> int:
        """Log and apply one page operation on behalf of ``txn``.

        Ordering matters: the record captures the page's current
        PageLSN as ``page_prev_lsn`` (extending the per-page chain),
        the operation is applied, and the page's PageLSN advances to
        the new record's LSN.
        """
        if txn.state is not _ACTIVE:
            self._require_active(txn)
        # Positional (every user write passes here): kind, txn_id,
        # prev_lsn, page_id, page_prev_lsn, index_id, lsn, op, undo.
        lsn = self.log.append(LogRecord(
            _UPDATE, txn.txn_id, txn.last_lsn, page.page_id, page.page_lsn,
            index_id, NULL_LSN, op, undo))
        op.apply_redo(page)
        page.page_lsn = lsn
        if not txn.first_lsn:  # Transaction.note_logged, in place
            txn.first_lsn = lsn
        txn.last_lsn = lsn
        self._page_updates_logged.inc()
        return lsn

    def log_format(self, txn: Transaction, page: Page, index_id: int,
                   op: PageOp) -> int:
        """Log a page-formatting record (also a backup image source)."""
        self._require_active(txn)
        record = LogRecord(LogRecordKind.FORMAT_PAGE, txn_id=txn.txn_id,
                           prev_lsn=txn.last_lsn, page_id=page.page_id,
                           page_prev_lsn=NULL_LSN, index_id=index_id, op=op)
        lsn = self.log.append(record)
        op.apply_redo(page)
        page.page_lsn = lsn
        page.reset_update_count()
        txn.note_logged(lsn)
        self._pages_formatted.inc()
        return lsn

    def log_compensation(self, txn: Transaction, page: Page, index_id: int,
                         op: PageOp, undo_next_lsn: int) -> int:
        """Log and apply a compensation (CLR) during rollback."""
        record = LogRecord(LogRecordKind.COMPENSATION, txn_id=txn.txn_id,
                           prev_lsn=txn.last_lsn, page_id=page.page_id,
                           page_prev_lsn=page.page_lsn, index_id=index_id,
                           op=op, undo_next_lsn=undo_next_lsn)
        lsn = self.log.append(record)
        op.apply_redo(page)
        page.page_lsn = lsn
        txn.note_logged(lsn)
        self._compensations_logged.inc()
        return lsn

    # ------------------------------------------------------------------
    # Chain inspection (loser registration for instant restart)
    # ------------------------------------------------------------------
    def chain_summary(self, last_lsn: int) -> tuple[set[bytes], int]:
        """Walk a transaction's log chain backwards from ``last_lsn``.

        Returns the set of keys its update records touched (from their
        logical-undo payloads — the keys the transaction must have
        locked) and the LSN of its first record.  Used by on-demand
        restart to re-acquire a loser's locks and to bound log
        truncation while its rollback is pending.
        """
        keys: set[bytes] = set()
        first_lsn = last_lsn
        lsn = last_lsn
        while lsn != NULL_LSN:
            record = self.log.record_at(lsn)
            first_lsn = record.lsn
            if record.undo is not None:
                keys.add(record.undo.key)
            lsn = record.prev_lsn
        return keys, first_lsn

    # ------------------------------------------------------------------
    # Rollback
    # ------------------------------------------------------------------
    def rollback_work(self, txn: Transaction, ctx: UndoContext,
                      to_lsn: int = NULL_LSN) -> None:
        """Undo ``txn``'s updates back to (but excluding) ``to_lsn``.

        Used both by :meth:`abort` and by restart undo.  CLRs are never
        undone; their ``undo_next_lsn`` skips over already-compensated
        work, making rollback idempotent across crashes.
        """
        lsn = txn.last_lsn
        while lsn != NULL_LSN and lsn > to_lsn:
            record = self.log.record_at(lsn)
            if record.kind == LogRecordKind.COMPENSATION:
                lsn = record.undo_next_lsn
                continue
            if record.kind != LogRecordKind.UPDATE:
                lsn = record.prev_lsn
                continue
            if record.undo is not None:
                # Logical (key-level) compensation through the index.
                ctx.logical_compensate(txn, record.index_id, record.undo,
                                       record.prev_lsn)
            elif record.op is not None:
                # Physical in-page undo.
                page = ctx.fix(record.page_id)
                inverse = OpInverse(record.op)
                clr_lsn = self.log_compensation(
                    txn, page, record.index_id, inverse, record.prev_lsn)
                ctx.unfix(record.page_id, clr_lsn)
            lsn = record.prev_lsn
