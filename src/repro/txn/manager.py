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
* an autocommit write of one key goes further: its one record is
  *redo-only* (no undo, no before-image) and takes the bit as it is
  appended (:meth:`TransactionManager.log_update`), so the transaction
  is committed from there and its commit is the force alone.  Nothing
  can roll it back, so it is *unlisted*
  (:meth:`TransactionManager.begin_unlisted`): no active-table entry,
  no key lock, nothing to unregister.  One that needs undo after all —
  a ghost's revival — enlists first (:meth:`TransactionManager.enlist`);
* user transaction commit then **forces** the log through the record
  that carries the commit (durability), in the same log-mutex hold as
  the bit — all but a prepared 2PC branch's phase two
  (:meth:`TransactionManager.commit_prepared`), whose durability is its
  forced PREPARE and the coordinator's forced decision;
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

from repro.errors import LogError, RecoveryError, TransactionError
from repro.page.page import LSN_OFFSET, PAGE_LSN, Page
from repro.sim.stats import Stats
from repro.sync import Mutex
from repro.txn.locks import LockManager
from repro.txn.transaction import Transaction, TxnState
from repro.wal.log_manager import LogManager
from repro.wal.lsn import NULL_LSN
from repro.wal.ops import (BULK_DELETE, BULK_INSERT, REDO, SEQUENCE,
                           bulk_rows, compensation, redo, sequence_members,
                           split_compensation)
from repro.wal.records import (NARROW_HEADER_SIZE, WIDE_BIT, WIDE_HEADER_SIZE,
                               LogicalUndo, LogRecordKind, UndoAction, clr,
                               encode_update, format_page, index_id_of,
                               prev_lsn_of, read_header, read_update, txn_end,
                               undo_next_lsn)
from repro.wal.records import prepare as prepare_record

if TYPE_CHECKING:
    from repro.buffer.buffer_pool import BufferPool

_ACTIVE = TxnState.ACTIVE
#: the kind bytes of a split's removal and of its moved rows' insert
_REMOVAL = bytes((BULK_DELETE,))
_RUN = bytes((BULK_INSERT,))
_UPDATE = LogRecordKind.UPDATE
_COMMITTED = TxnState.COMMITTED


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

    def begin_unlisted(self) -> Transaction:
        """A user transaction as :meth:`begin` starts one — the next id,
        counted as started — entered in no table: the unlisted write of
        :meth:`repro.engine.database.Database.autocommit_write`."""
        with self._mutex:
            txn = Transaction(self._next_txn_id)
            self._next_txn_id += 1
        self._user_txns_started.inc()
        return txn

    def enlist(self, txn: Transaction, key: bytes) -> None:
        """List the unlisted write ``txn``, about to log a write that
        needs undo, in the active table and lock ``key`` for it, before
        its first record: from there rollback, checkpoints and a media
        failure's kill see it as any transaction.  The lock is free: the
        write checked it, and nothing has run since."""
        txn.redo_only = False
        with self._mutex:
            self.active[txn.txn_id] = txn
        self.locks.acquire(txn.txn_id, key)

    def unfinished(self) -> list[Transaction]:
        """The active transactions a restart would have to finish: every
        listed one (an unlisted write is committed at its append)."""
        with self._mutex:
            return list(self.active.values())

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

        An unlisted write (``txn.redo_only``, see :meth:`begin_unlisted`)
        that logged its one record is COMMITTED already, by that
        record's bit: for it this is the force alone, as it is listed in
        no table and holds no lock.
        """
        unlisted = txn.redo_only
        if txn.state is not _ACTIVE:
            if txn.state is not _COMMITTED or not unlisted:
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
        if not unlisted:
            with self._mutex:  # _finish, in place
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
        durable once the block exits.
        """
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
        lsn = self.log.append(prepare_record(txn.txn_id, txn.last_lsn, gtid))
        txn.note_logged(lsn)
        self.log.commit_force(lsn)
        txn.state = TxnState.PREPARED
        self._txns_prepared.inc()
        return lsn

    def commit_prepared(self, txn: Transaction) -> int:
        """Phase two, decision = commit: finish a prepared transaction.

        The PREPARE record is durable, so the commit is a COMMIT record
        of its own, appended and *not* forced: the coordinator's forced
        decision is the commit point, and it is kept.  The COMMIT
        hardens with the next force; a crash that loses it restarts the
        branch in doubt (:attr:`repro.engine.database.Database.
        indoubt`), and the coordinator commits it again from its
        decision.  A standalone engine that prepares is its own
        coordinator: after a crash it resolves ``db.indoubt`` itself.
        """
        self._require_prepared(txn)
        lsn = self.log.commit(txn.txn_id, txn.last_lsn, force=False)
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
        lsn = self.log.append(txn_end(LogRecordKind.ABORT, txn.txn_id,
                                      txn.last_lsn))
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
                   index_id: int, op: bytes,
                   undo: LogicalUndo | None = None) -> int:
        """Log and apply one page op — its bytes, :mod:`repro.wal.ops` —
        on behalf of ``txn`` to the pinned ``page``, whose id the caller
        holds as ``page_id``.

        Ordering matters: the record captures the page's current
        PageLSN as ``page_prev_lsn`` (extending the per-page chain),
        the operation is applied — from the bytes just logged, by the
        kernel any redo of the record runs (:data:`repro.wal.ops.REDO`)
        — and the page's PageLSN advances to the new record's LSN.

        An unlisted write (``txn.redo_only``) that logs a write with no
        ``undo`` logs it as its only record, redo-only: the log sets its
        commit bit at append, and the transaction is COMMITTED from
        there — nothing may roll it back, so its caller makes every
        fallible check before this call.  :meth:`commit` forces it.

        A leaf run's record counts one page update per row, as its redo
        does (:func:`repro.core.single_page.replay_records`).
        """
        if txn.state is not _ACTIVE:
            self._require_active(txn)
        redo_only = undo is None and txn.redo_only
        if redo_only and txn.last_lsn:
            raise TransactionError(
                f"transaction {txn.txn_id} logged before its redo-only "
                f"record, which must be its only one")
        # The page's PageLSN, read in place: the record's page_prev_lsn.
        encoding = encode_update(
            txn.txn_id, txn.last_lsn, page_id,
            PAGE_LSN.unpack_from(page.data, LSN_OFFSET)[0], index_id, op,
            undo, redo_only)
        lsn = self.log.append(encoding)
        if redo_only:
            txn.state = _COMMITTED
        # The op follows the header, the flags byte and its u16 length.
        at = (WIDE_HEADER_SIZE if encoding[0] & WIDE_BIT
              else NARROW_HEADER_SIZE) + 3
        if (REDO[encoding[at]](page, encoding, at)
                != at + (encoding[at - 2] | encoding[at - 1] << 8)):
            raise LogError(f"the op logged at LSN {lsn} does not end where "
                           f"its field does")
        page.page_lsn = lsn
        if undo is not None and undo.keys:
            page.count_updates(len(undo.keys) - 1)  # a leaf run's rows
        if not txn.first_lsn:  # Transaction.note_logged, in place
            txn.first_lsn = lsn
        txn.last_lsn = lsn
        self._page_updates_logged.inc()
        return lsn

    def log_format(self, txn: Transaction, page: Page, index_id: int,
                   op: bytes) -> int:
        """Log a page-formatting record (also a backup image source) and
        apply the op it logged."""
        self._require_active(txn)
        encoding = format_page(txn.txn_id, txn.last_lsn, page.page_id,
                               index_id, op)
        lsn = self.log.append(encoding)
        redo(page, encoding, len(encoding) - len(op), len(encoding))
        page.page_lsn = lsn
        page.reset_update_count()
        txn.note_logged(lsn)
        self._pages_formatted.inc()
        return lsn

    def log_compensation(self, txn: Transaction, page: Page, index_id: int,
                         op: bytes, undo_next_lsn: int) -> int:
        """Log a compensation (CLR) during rollback and apply the op it
        logged."""
        encoding = clr(txn.txn_id, txn.last_lsn, page.page_id, page.page_lsn,
                       index_id, op, undo_next_lsn)
        lsn = self.log.append(encoding)
        redo(page, encoding, len(encoding) - len(op), len(encoding))
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
            encoding = self.log.encoding_at(lsn)
            first_lsn = lsn
            if read_header(encoding)[0] == _UPDATE:
                undo = read_update(encoding)[0]
                if undo is not None:
                    keys.update(undo.keys or (undo.key,))
            lsn = prev_lsn_of(encoding)
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

        A split's record of its source page removes the moved rows
        naming none; its CLR inserts them again, from the split's other
        copy of them (:meth:`_split_compensation`).
        """
        lsn = txn.last_lsn
        while lsn != NULL_LSN and lsn > to_lsn:
            encoding = self.log.encoding_at(lsn)
            kind, _commits, txn_id, page_id, _ = read_header(encoding)
            if kind == LogRecordKind.COMPENSATION:
                lsn = undo_next_lsn(encoding)
                continue
            prev_lsn = prev_lsn_of(encoding)
            if kind != _UPDATE:
                lsn = prev_lsn
                continue
            undo, start, end = read_update(encoding)
            index_id = index_id_of(encoding)
            if undo is not None and undo.keys:
                keys = undo.keys
                for j in range(len(keys) - 1, -1, -1):
                    ctx.logical_compensate(
                        txn, index_id,
                        LogicalUndo(UndoAction.DELETE_KEY, keys[j]),
                        lsn if j else prev_lsn)
            elif undo is not None:
                # Logical (key-level) compensation through the index.
                ctx.logical_compensate(txn, index_id, undo, prev_lsn)
            elif start < end:
                # Physical in-page undo.
                page = ctx.pool.fix(page_id)
                op = encoding[start:end]
                try:
                    # A sequence whose first member (at byte 3) removes rows.
                    inverse = (self._split_compensation(
                                   ctx, page, op, lsn, txn_id, prev_lsn)
                               if op[0] == SEQUENCE
                               and op[3:4] == _REMOVAL
                               else compensation(op))
                except BaseException:
                    ctx.pool.unfix(page_id)
                    raise
                clr_lsn = self.log_compensation(txn, page, index_id, inverse,
                                                prev_lsn)
                ctx.pool.unfix(page_id, clr_lsn)
            lsn = prev_lsn

    def _split_compensation(self, ctx: UndoContext, page: Page, op: bytes,
                            lsn: int, txn_id: int, prev_lsn: int) -> bytes:
        """The compensation of a split's record at ``lsn`` — by
        transaction ``txn_id``, of the op ``op`` — of the pinned source
        ``page`` — a row-free removal, then the foster link: one CLR of
        the link's inverses, newest first, then an insert of the rows
        the removal took.

        They are the rows of the split's one other copy of them, the
        bulk insert that ends its foster child's record — the source
        record's ``prev_lsn`` in the same system transaction — stored
        there behind the foster child's prefix, which extends this
        page's: re-prefixed here with the bytes between the two.  The
        foster child still holds them, as rollback has not reached its
        record yet.
        """
        moved = self.log.encoding_at(prev_lsn)
        kind, _commits, moved_txn, moved_page, _ = read_header(moved)
        start, end = read_update(moved)[1:] if kind == _UPDATE else (0, 0)
        rows_op = moved[start:end]
        last = (sequence_members(rows_op)[-1]
                if rows_op and rows_op[0] == SEQUENCE else b"")
        if moved_txn != txn_id or last[:1] != _RUN:
            raise RecoveryError(f"the removal at LSN {lsn} does not "
                                f"follow its split's moved rows")
        rows = bulk_rows(last, 0)[1]
        prefix = ctx.key_prefix(page)
        foster = ctx.pool.fix(moved_page)
        try:
            foster_prefix = ctx.key_prefix(foster)
        finally:
            ctx.pool.unfix(moved_page)
        if not foster_prefix.startswith(prefix):
            raise RecoveryError(
                f"foster prefix {foster_prefix!r} of page {moved_page} "
                f"does not extend prefix {prefix!r} of page {page.page_id}")
        extra = foster_prefix[len(prefix):]
        if extra:
            rows = [(extra + key, value, ghost) for key, value, ghost in rows]
        return split_compensation(op, rows)
