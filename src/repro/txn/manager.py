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
* an autocommit transaction of one write goes further: its one record
  is *redo-only* (no undo, no before-image) and takes the bit as it is
  appended (:meth:`TransactionManager.log_update`), so the transaction
  is committed from there and its commit is the force alone;
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
from typing import TYPE_CHECKING, Iterator, Protocol

from repro.errors import RecoveryError, TransactionError
from repro.page.page import Page
from repro.sim.stats import Stats
from repro.sync import Mutex
from repro.txn.locks import LockManager
from repro.txn.transaction import Transaction, TxnState
from repro.wal.log_manager import LogManager
from repro.wal.lsn import NULL_LSN
from repro.wal.ops import OpBulkDelete, OpBulkInsert, OpInverse, PageOp
from repro.wal.records import LogicalUndo, LogRecord, LogRecordKind, UndoAction

if TYPE_CHECKING:
    from repro.buffer.buffer_pool import BufferPool

_ACTIVE = TxnState.ACTIVE
_COMMITTED = TxnState.COMMITTED
_UPDATE = LogRecordKind.UPDATE


class UndoContext(Protocol):
    """What rollback needs from the engine."""

    #: where a physical undo pins its page (``fix(page_id)``) and unpins
    #: it, naming the first LSN it logged there (``unfix(page_id,
    #: dirty_lsn)``)
    pool: BufferPool

    def key_prefix(self, page: Page) -> bytes:
        """The prefix a pinned index page strips from the keys it
        stores."""
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

    def unfinished(self) -> list[Transaction]:
        """The active transactions a restart would have to finish — all
        but those committed at their redo-only record's append
        (:meth:`log_update`), whose force and release alone are due."""
        with self._mutex:
            return [txn for txn in self.active.values()
                    if txn.state is not _COMMITTED]

    @property
    def next_txn_id(self) -> int:
        """The id the next :meth:`begin` hands out."""
        return self._next_txn_id

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

        A transaction that logged its one write redo-only
        (:meth:`log_update`) is COMMITTED already, by that record's
        bit: for it this is the force and the release alone.
        """
        if txn.state is not _ACTIVE:
            if txn.state is not _COMMITTED or not txn.redo_only:
                self._require_active(txn)
            txn.redo_only = False  # finished below: no second commit
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
    def log_update(self, txn: Transaction, page_id: int, page: Page,
                   index_id: int, op: PageOp,
                   undo: LogicalUndo | None = None) -> int:
        """Log and apply one page operation on behalf of ``txn`` to the
        pinned ``page``, whose id the caller holds as ``page_id``.

        Ordering matters: the record captures the page's current
        PageLSN as ``page_prev_lsn`` (extending the per-page chain),
        the operation is applied, and the page's PageLSN advances to
        the new record's LSN.

        A user transaction marked ``redo_only`` that logs a write with
        no ``undo`` logs it as its only record, redo-only: the log sets
        its commit bit at append, and the transaction is COMMITTED from
        there — nothing may roll it back, so its caller makes every
        fallible check before this call.  :meth:`commit` forces it.

        A leaf run's record counts one page update per row, as its redo
        does (:func:`repro.core.single_page.replay_records`).
        """
        if txn.state is not _ACTIVE:
            self._require_active(txn)
        # Positional (every user write passes here): kind, txn_id,
        # prev_lsn, page_id, page_prev_lsn, index_id, lsn, op, undo.
        record = LogRecord(_UPDATE, txn.txn_id, txn.last_lsn, page_id,
                           page.page_lsn, index_id, NULL_LSN, op, undo)
        if undo is None and txn.redo_only:
            if txn.last_lsn:
                raise TransactionError(
                    f"transaction {txn.txn_id} logged before its redo-only "
                    f"record, which must be its only one")
            record.redo_only = True
            lsn = self.log.append(record)
            txn.state = _COMMITTED
        else:
            lsn = self.log.append(record)
        op.apply_redo(page)
        page.page_lsn = lsn
        if undo is not None and undo.keys:
            page.count_updates(len(undo.keys) - 1)  # a leaf run's rows
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
        logical-undo payloads, every key of a leaf run's — the keys the
        transaction must have locked) and the LSN of its first record.
        Used by on-demand restart to re-acquire a loser's locks and to
        bound log truncation while its rollback is pending.
        """
        keys: set[bytes] = set()
        first_lsn = last_lsn
        lsn = last_lsn
        while lsn != NULL_LSN:
            record = self.log.record_at(lsn)
            first_lsn = record.lsn
            undo = record.undo
            if undo is not None:
                if undo.keys:
                    keys.update(undo.keys)
                else:
                    keys.add(undo.key)
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

        A leaf run's record is undone key by key, newest first, as the
        per-key records it stands for would be.  Every CLR but the last
        names the run record itself as ``undo_next_lsn``: a crash in
        between redoes the run's whole undo, and a key compensated
        already is a ghost, whose compensation logs nothing.  Handing
        each CLR the run's ``prev_lsn`` would strand the keys left.

        A split's removal names no row; its CLR inserts them again, from
        the split's other copy of them (:meth:`_split_compensation`).
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
            undo = record.undo
            if undo is not None and undo.keys:
                keys = undo.keys
                for j in range(len(keys) - 1, -1, -1):
                    ctx.logical_compensate(
                        txn, record.index_id,
                        LogicalUndo(UndoAction.DELETE_KEY, keys[j]),
                        lsn if j else record.prev_lsn)
            elif undo is not None:
                # Logical (key-level) compensation through the index.
                ctx.logical_compensate(txn, record.index_id, undo,
                                       record.prev_lsn)
            elif record.op is not None:
                # Physical in-page undo.
                page = ctx.pool.fix(record.page_id)
                try:
                    inverse = (self._split_compensation(ctx, page, record)
                               if type(record.op) is OpBulkDelete
                               else OpInverse(record.op))
                except BaseException:
                    ctx.pool.unfix(record.page_id)
                    raise
                clr_lsn = self.log_compensation(
                    txn, page, record.index_id, inverse, record.prev_lsn)
                ctx.pool.unfix(record.page_id, clr_lsn)
            lsn = record.prev_lsn

    def _split_compensation(self, ctx: UndoContext, page: Page,
                            record: LogRecord) -> PageOp:
        """The compensation of a split's row-free removal from the
        pinned ``page``: an insert of the rows it removed.

        They are the rows of the split's one other copy of them, its
        foster child's OpBulkInsert — the removal's ``prev_lsn`` in the
        same system transaction — stored there behind the foster child's
        prefix, which extends this page's: re-prefixed here with the
        bytes between the two.  The foster child still holds them, as
        rollback has not reached its insert yet.
        """
        moved = self.log.record_at(record.prev_lsn)
        if moved.txn_id != record.txn_id or type(moved.op) is not OpBulkInsert:
            raise RecoveryError(f"the removal at LSN {record.lsn} does not "
                                f"follow its split's moved rows")
        rows = moved.op.records
        prefix = ctx.key_prefix(page)
        foster = ctx.pool.fix(moved.page_id)
        try:
            foster_prefix = ctx.key_prefix(foster)
        finally:
            ctx.pool.unfix(moved.page_id)
        if not foster_prefix.startswith(prefix):
            raise RecoveryError(
                f"foster prefix {foster_prefix!r} of page {moved.page_id} "
                f"does not extend prefix {prefix!r} of page {record.page_id}")
        extra = foster_prefix[len(prefix):]
        if extra:
            rows = tuple((extra + key, value, ghost)
                         for key, value, ghost in rows)
        return record.op.restoring(rows)
