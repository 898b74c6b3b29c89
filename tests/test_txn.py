"""Unit tests: transactions, commit semantics (Figure 5), rollback, locks."""

import pytest

from repro.errors import DeadlockError, TransactionError
from repro.page.page import Page, PageType
from repro.page.slotted import SlottedPage
from repro.sim.clock import SimClock
from repro.sim.iomodel import NULL_PROFILE
from repro.sim.stats import Stats
from repro.txn.locks import LockConflict, LockManager
from repro.txn.manager import TransactionManager
from repro.txn.transaction import Transaction, TxnState
from repro.wal.log_manager import LogManager
from repro.wal.lsn import NULL_LSN
from repro.wal.ops import OpInsert
from repro.wal.records import LogRecordKind

PAGE_SIZE = 1024


class FakePool:
    """The pool of a minimal UndoContext: a dict of pages."""

    def __init__(self, pages: dict[int, Page]) -> None:
        self.pages = pages

    def fix(self, page_id: int) -> Page:
        return self.pages[page_id]

    def unfix(self, page_id: int, dirty_lsn: int | None = None) -> None:
        pass


class FakeUndoContext:
    """Minimal UndoContext over a dict of pages."""

    def __init__(self, pages: dict[int, Page]) -> None:
        self.pool = FakePool(pages)
        self.logical_calls: list[tuple[int, object, int]] = []

    def logical_compensate(self, txn, index_id, undo, undo_next_lsn):  # noqa: ANN001
        self.logical_calls.append((index_id, undo, undo_next_lsn))


@pytest.fixture
def setup():
    stats = Stats()
    log = LogManager(SimClock(), NULL_PROFILE, stats)
    tm = TransactionManager(log, stats)
    page = Page.format(PAGE_SIZE, 5, PageType.HEAP)
    SlottedPage(page).initialize()
    ctx = FakeUndoContext({5: page})
    return log, tm, page, ctx, stats


class TestCommitSemantics:
    def test_user_commit_forces_log(self, setup):
        log, tm, page, _ctx, stats = setup
        txn = tm.begin()
        tm.log_update(txn, page.page_id, page, 1, OpInsert(0, b"a", b"1"))
        forces_before = stats.get("log_forces")
        tm.commit(txn)
        assert stats.get("log_forces") == forces_before + 1
        assert log.durable_lsn == log.end_lsn

    def test_system_commit_does_not_force(self, setup):
        """Figure 5: system transactions commit without forcing."""
        log, tm, page, _ctx, stats = setup
        txn = tm.begin(system=True)
        tm.log_update(txn, page.page_id, page, 1, OpInsert(0, b"a", b"1"))
        forces_before = stats.get("log_forces")
        tm.commit(txn)
        assert stats.get("log_forces") == forces_before
        assert log.durable_lsn < log.end_lsn

    def test_user_commit_hardens_earlier_system_commits(self, setup):
        """System commit records are forced 'prior to (or with) the
        commit record of any dependent user transaction'."""
        log, tm, page, _ctx, _stats = setup
        sys_txn = tm.begin(system=True)
        tm.log_update(sys_txn, page.page_id, page, 1, OpInsert(0, b"a", b"1"))
        sys_commit = tm.commit(sys_txn)
        user = tm.begin()
        tm.log_update(user, page.page_id, page, 1, OpInsert(1, b"b", b"2"))
        tm.commit(user)
        assert log.durable_lsn > sys_commit

    def test_double_commit_rejected(self, setup):
        _log, tm, _page, _ctx, _stats = setup
        txn = tm.begin()
        tm.commit(txn)
        with pytest.raises(TransactionError):
            tm.commit(txn)

    def test_txn_ids_monotonic(self, setup):
        _log, tm, _page, _ctx, _stats = setup
        ids = [tm.begin().txn_id for _ in range(3)]
        assert ids == sorted(ids)
        tm.restore_txn_id_floor(100)
        assert tm.begin().txn_id == 101


class TestChains:
    def test_per_transaction_chain(self, setup):
        log, tm, page, _ctx, _stats = setup
        txn = tm.begin()
        l1 = tm.log_update(txn, page.page_id, page, 1, OpInsert(0, b"a", b"1"))
        l2 = tm.log_update(txn, page.page_id, page, 1, OpInsert(1, b"b", b"2"))
        commit = tm.commit(txn)
        # The commit rides on the transaction's last record.
        assert commit == l2 and log.record_at(l2).commits_txn
        assert not log.record_at(l1).commits_txn
        assert log.record_at(l2).prev_lsn == l1
        assert log.record_at(l1).prev_lsn == NULL_LSN

    def test_per_page_chain(self, setup):
        """Section 5.1.4: each record points to the previous record for
        the same page, anchored by the PageLSN."""
        log, tm, page, _ctx, _stats = setup
        txn_a = tm.begin()
        txn_b = tm.begin()
        l1 = tm.log_update(txn_a, page.page_id, page, 1, OpInsert(0, b"a", b"1"))
        l2 = tm.log_update(txn_b, page.page_id, page, 1, OpInsert(1, b"b", b"2"))
        l3 = tm.log_update(txn_a, page.page_id, page, 1, OpInsert(2, b"c", b"3"))
        assert page.page_lsn == l3
        assert log.record_at(l3).page_prev_lsn == l2
        assert log.record_at(l2).page_prev_lsn == l1
        assert log.record_at(l1).page_prev_lsn == NULL_LSN

    def test_page_lsn_advances_with_each_update(self, setup):
        _log, tm, page, _ctx, _stats = setup
        txn = tm.begin()
        lsns = [tm.log_update(txn, page.page_id, page, 1, OpInsert(i, b"k%d" % i, b"v"))
                for i in range(3)]
        assert lsns == sorted(lsns)
        assert page.page_lsn == lsns[-1]


class TestRollback:
    def test_physical_rollback_restores_page(self, setup):
        _log, tm, page, ctx, _stats = setup
        txn = tm.begin()
        tm.log_update(txn, page.page_id, page, 1, OpInsert(0, b"a", b"1"))
        tm.log_update(txn, page.page_id, page, 1, OpInsert(1, b"b", b"2"))
        tm.abort(txn, ctx)
        assert SlottedPage(page).slot_count == 0
        assert txn.state == TxnState.ABORTED

    def test_rollback_writes_clrs(self, setup):
        log, tm, page, ctx, _stats = setup
        txn = tm.begin()
        tm.log_update(txn, page.page_id, page, 1, OpInsert(0, b"a", b"1"))
        tm.abort(txn, ctx)
        kinds = [r.kind for r in log.all_records()]
        assert kinds.count(LogRecordKind.COMPENSATION) == 1
        assert kinds[-1] == LogRecordKind.ABORT

    def test_clr_undo_next_skips_compensated_work(self, setup):
        log, tm, page, ctx, _stats = setup
        txn = tm.begin()
        l1 = tm.log_update(txn, page.page_id, page, 1, OpInsert(0, b"a", b"1"))
        l2 = tm.log_update(txn, page.page_id, page, 1, OpInsert(1, b"b", b"2"))
        tm.abort(txn, ctx)
        clrs = [r for r in log.all_records()
                if r.kind == LogRecordKind.COMPENSATION]
        assert clrs[0].undo_next_lsn == l1  # first CLR compensates l2
        assert clrs[1].undo_next_lsn == NULL_LSN

    def test_partial_rollback_is_restartable(self, setup):
        """Re-running rollback after a 'crash' mid-undo must not
        double-compensate (CLRs are never undone)."""
        _log, tm, page, ctx, _stats = setup
        txn = tm.begin()
        tm.log_update(txn, page.page_id, page, 1, OpInsert(0, b"a", b"1"))
        tm.log_update(txn, page.page_id, page, 1, OpInsert(1, b"b", b"2"))
        # First rollback attempt: undo only the most recent update.
        tm.rollback_work(txn, ctx, to_lsn=txn.first_lsn)
        assert SlottedPage(page).slot_count == 1
        # Resume to completion (as restart undo would).
        tm.rollback_work(txn, ctx)
        assert SlottedPage(page).slot_count == 0

    def test_logical_undo_routed_through_index(self, setup):
        from repro.wal.records import LogicalUndo, UndoAction

        _log, tm, page, ctx, _stats = setup
        txn = tm.begin()
        l1 = tm.log_update(txn, page.page_id, page, 1, OpInsert(0, b"a", b"1"),
                           undo=LogicalUndo(UndoAction.DELETE_KEY, b"a"))
        tm.abort(txn, ctx)
        assert len(ctx.logical_calls) == 1
        index_id, undo, undo_next = ctx.logical_calls[0]
        assert index_id == 1
        assert undo.key == b"a"
        assert undo_next == NULL_LSN  # the compensated record was first
        assert undo_next == tm.log.record_at(l1).prev_lsn


class TestLockManager:
    def test_acquire_release(self):
        locks = LockManager()
        locks.acquire(1, b"k")
        assert locks.holder_of(b"k") == 1
        locks.release_all(1)
        assert locks.holder_of(b"k") is None

    def test_reentrant_acquire(self):
        locks = LockManager()
        locks.acquire(1, b"k")
        locks.acquire(1, b"k")  # no error

    def test_conflict_raises(self):
        locks = LockManager()
        locks.acquire(1, b"k")
        with pytest.raises(LockConflict):
            locks.acquire(2, b"k")

    def test_deadlock_detected(self):
        locks = LockManager()
        locks.acquire(1, b"a")
        locks.acquire(2, b"b")
        with pytest.raises(LockConflict):
            locks.acquire(1, b"b")  # 1 waits for 2
        # Record the wait edge as a real block would, then close the cycle.
        locks._waits_for[1] = 2
        with pytest.raises(DeadlockError):
            locks.acquire(2, b"a")  # 2 waits for 1 -> cycle

    def test_locks_held_tracking(self):
        locks = LockManager()
        locks.acquire(1, b"x")
        locks.acquire(1, b"y")
        assert locks.locks_held(1) == {b"x", b"y"}
